package broker

// Exported, read-only decoding of the broker's WAL record and snapshot
// encodings. The broker's own recovery (applyRecord/applySnapshot) funnels
// through these decoders, and the audit path (ReplayAudit, cmd/muaa-audit)
// uses them to rebuild the arrival stream without touching broker state —
// one source of truth for the byte layout.

import (
	"errors"
	"fmt"
	"math"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// RecordKind discriminates decoded WAL records.
type RecordKind byte

// The wire record types (see the rec* constants in durable.go).
const (
	RecordRegister   RecordKind = RecordKind(recRegister)
	RecordTopUp      RecordKind = RecordKind(recTopUp)
	RecordPause      RecordKind = RecordKind(recPause)
	RecordArrivals   RecordKind = RecordKind(recArrivals)
	RecordConversion RecordKind = RecordKind(recConversion)
	RecordController RecordKind = RecordKind(recController)
)

// String names the record kind for reports and errors.
func (k RecordKind) String() string {
	switch k {
	case RecordRegister:
		return "register"
	case RecordTopUp:
		return "topup"
	case RecordPause:
		return "pause"
	case RecordArrivals:
		return "arrivals"
	case RecordConversion:
		return "conversion"
	case RecordController:
		return "controller"
	}
	return fmt.Sprintf("RecordKind(%d)", byte(k))
}

// DecodedRecord is one WAL record in structured form. Which fields are
// meaningful depends on Kind: registrations fill Campaign/Loc/Radius/
// Budget/Tags plus the class and billing contract, top-ups Campaign/Amount,
// pauses Campaign/Paused, arrivals Auction/Arrivals.
type DecodedRecord struct {
	Kind     RecordKind
	Campaign int32
	Loc      geo.Point
	Radius   float64
	Budget   float64
	Tags     []float64
	Amount   float64
	Paused   bool

	// The delivery class and billing contract a RecordRegister carries (the
	// zero Billing is the fixed-cost contract).
	Guaranteed bool
	Floor      float64
	Penalty    float64
	Billing    model.Billing

	// RecordConversion payload: the escrowed offer collected, its model,
	// the charge moved from escrow to spend, and the idempotency key the
	// event carried (empty when none).
	OfferID  uint64
	Model    model.BillingModel
	Charge   float64
	EventKey string

	// RecordArrivals payload: the accepted arrivals of one pipeline call in
	// processing order (one for an Arrive, the window for an ArriveBatch),
	// and whether they were auction-resolved.
	Auction  bool
	Arrivals []ArrivalRecord

	// RecordController payload: the epoch counter, the threshold-boost bits,
	// and the applied per-campaign rate/allowance bits. Bits, not floats —
	// replay stores them verbatim so recovery never re-runs the control law.
	Epoch      int64
	BoostBits  uint64
	Controller []ControllerEntry
}

// ArrivalRecord is one arrival inside a RecordArrivals payload: the γ
// bounds as they stood after its commit, the arriving customer and the
// offers committed for it.
type ArrivalRecord struct {
	GammaMin float64
	GammaMax float64
	Customer Arrival
	Offers   []Offer
}

// ControllerEntry is one campaign's applied actuator bits inside a
// RecordController payload.
type ControllerEntry struct {
	Campaign      int32
	RateBits      uint64
	AllowanceBits uint64
}

// DecodeRecord decodes one WAL record payload. It never panics on any
// input; malformed payloads return an error.
func DecodeRecord(rec []byte) (DecodedRecord, error) {
	if len(rec) == 0 {
		return DecodedRecord{}, errors.New("empty record")
	}
	d := DecodedRecord{Kind: RecordKind(rec[0])}
	r := &recReader{data: rec[1:]}
	switch rec[0] {
	case recRegister:
		d.Campaign = r.i32()
		d.Loc = geo.Point{X: r.f64(), Y: r.f64()}
		d.Radius = r.f64()
		d.Budget = r.f64()
		d.Guaranteed = r.u8() != 0
		d.Floor = r.f64()
		d.Penalty = r.f64()
		d.Billing.Model = model.BillingModel(r.u8())
		d.Billing.ReserveECPM = r.f64()
		d.Billing.EventRate = r.f64()
		n := r.u32()
		if r.err != nil || int(n) > r.remaining()/8 {
			return DecodedRecord{}, errors.New("malformed registration record")
		}
		d.Tags = make([]float64, n)
		for i := range d.Tags {
			d.Tags[i] = r.f64()
		}
	case recController:
		if v := r.u8(); r.err == nil && v != controllerRecVersion {
			return DecodedRecord{}, fmt.Errorf("unsupported controller record version %d", v)
		}
		d.Epoch = r.i64()
		d.BoostBits = r.u64()
		n := r.u32()
		if r.err != nil || int(n) > r.remaining()/20 {
			return DecodedRecord{}, errors.New("malformed controller record")
		}
		if n > 0 {
			d.Controller = make([]ControllerEntry, n)
			for i := range d.Controller {
				e := &d.Controller[i]
				e.Campaign = r.i32()
				e.RateBits = r.u64()
				e.AllowanceBits = r.u64()
			}
		}
	case recTopUp:
		d.Campaign = r.i32()
		d.Amount = r.f64()
	case recPause:
		d.Campaign = r.i32()
		d.Paused = r.u8() != 0
	case recArrivals:
		n := r.u32()
		flags := r.u8()
		// Each body is at least 60 bytes (two γ words, the fixed customer
		// fields, two empty-section counts).
		if r.err != nil || n == 0 || int(n) > r.remaining()/60 || flags&^arrivalsAuction != 0 {
			return DecodedRecord{}, errors.New("malformed arrivals record")
		}
		d.Auction = flags&arrivalsAuction != 0
		d.Arrivals = make([]ArrivalRecord, n)
		for i := range d.Arrivals {
			if !decodeArrivalBody(r, &d.Arrivals[i]) {
				return DecodedRecord{}, errors.New("malformed arrivals record")
			}
		}
	case recConversion:
		d.OfferID = r.u64()
		d.Campaign = r.i32()
		d.Model = model.BillingModel(r.u8())
		d.Charge = r.f64()
		n := r.u32()
		if r.err != nil || int(n) > r.remaining() {
			return DecodedRecord{}, errors.New("malformed conversion record")
		}
		if n > 0 {
			d.EventKey = string(r.data[r.off : r.off+int(n)])
			r.off += int(n)
		}
	default:
		return DecodedRecord{}, fmt.Errorf("unsupported record type %d (unknown, or a retired layout written by an older build)", rec[0])
	}
	if err := r.done(); err != nil {
		return DecodedRecord{}, err
	}
	return d, nil
}

// decodeArrivalBody decodes one arrival body of a RecordArrivals payload
// into e: γ bounds, customer features, then the offers at 49 bytes each.
// Returns false on malformed input.
func decodeArrivalBody(r *recReader, e *ArrivalRecord) bool {
	e.GammaMin = r.f64()
	e.GammaMax = r.f64()
	e.Customer.Loc = geo.Point{X: r.f64(), Y: r.f64()}
	e.Customer.Capacity = int(r.u32())
	e.Customer.ViewProb = r.f64()
	e.Customer.Hour = r.f64()
	ni := r.u32()
	if r.err != nil || int(ni) > r.remaining()/8 {
		return false
	}
	if ni > 0 {
		e.Customer.Interests = make([]float64, ni)
		for i := range e.Customer.Interests {
			e.Customer.Interests[i] = r.f64()
		}
	}
	no := r.u32()
	if r.err != nil || int(no) > r.remaining()/49 {
		return false
	}
	if no > 0 {
		e.Offers = make([]Offer, no)
		for i := range e.Offers {
			o := &e.Offers[i]
			o.Campaign = r.i32()
			o.AdType = int(r.u32())
			o.Cost = r.f64()
			o.Utility = r.f64()
			o.ID = r.u64()
			o.ChargeECPM = r.f64()
			o.Hold = r.f64()
			o.Model = model.BillingModel(r.u8())
		}
	}
	return r.err == nil
}

// SnapshotCampaign is one campaign's state inside a decoded snapshot.
// BudgetBits/SpentBits carry the exact IEEE-754 bits the snapshot recorded,
// so replay restores bit-identical accumulators; Budget/Spent are the same
// values as floats for consumers that only read.
type SnapshotCampaign struct {
	ID         int32
	Loc        geo.Point
	Radius     float64
	BudgetBits uint64
	SpentBits  uint64
	Paused     bool
	Tags       []float64

	Guaranteed    bool
	Floor         float64
	Penalty       float64
	RateBits      uint64
	AllowanceBits uint64

	// Billing contract and escrow accumulators (a fixed-cost campaign has
	// the zero contract and no escrow).
	BillingModel  model.BillingModel
	ReserveBits   uint64
	EventRateBits uint64
	EscrowBits    uint64
	ConvertedBits uint64
	Conversions   int64
}

// Budget returns the campaign budget as a float.
func (c *SnapshotCampaign) Budget() float64 { return math.Float64frombits(c.BudgetBits) }

// Spent returns the spent accumulator as a float.
func (c *SnapshotCampaign) Spent() float64 { return math.Float64frombits(c.SpentBits) }

// Billing returns the campaign's recorded billing contract.
func (c *SnapshotCampaign) Billing() model.Billing {
	return model.Billing{
		Model:       c.BillingModel,
		ReserveECPM: math.Float64frombits(c.ReserveBits),
		EventRate:   math.Float64frombits(c.EventRateBits),
	}
}

// SnapshotState is a decoded compacted-state payload.
type SnapshotState struct {
	Arrivals     int64
	Offers       int64
	UtilityBits  uint64
	SpentBits    uint64
	GammaMinBits uint64
	GammaMaxBits uint64
	PhiBoostBits uint64
	PacingEpoch  int64
	Campaigns    []SnapshotCampaign

	// Billing is the global billing section.
	Billing SnapshotBilling
}

// SnapshotBilling is the global billing sidecar state a snapshot carries: accumulator bits, the open escrow table in ID order and the live
// idempotency-key window oldest-first.
type SnapshotBilling struct {
	NextID           uint64
	EvictNext        uint64
	HeldBits         uint64
	ReleasedBits     uint64
	ConvertedRevBits uint64
	Conversions      int64
	RevenueBits      [model.NumBillingModels]uint64
	Open             []SnapshotOpenOffer
	IdemKeys         []string
}

// SnapshotOpenOffer is one open escrowed offer inside a snapshot.
type SnapshotOpenOffer struct {
	ID       uint64
	Campaign int32
	Model    model.BillingModel
	Hold     float64
}

// GammaMin returns the recorded γ lower bound as a float (+Inf when nothing
// was observed yet).
func (s *SnapshotState) GammaMin() float64 { return math.Float64frombits(s.GammaMinBits) }

// GammaMax returns the recorded γ upper bound as a float.
func (s *SnapshotState) GammaMax() float64 { return math.Float64frombits(s.GammaMaxBits) }

// DecodeSnapshot decodes a compacted-state payload. Like DecodeRecord it is
// total: malformed input errors, never panics.
func DecodeSnapshot(data []byte) (SnapshotState, error) {
	if len(data) == 0 {
		return SnapshotState{}, errors.New("empty snapshot")
	}
	if data[0] != snapshotVersion {
		return SnapshotState{}, fmt.Errorf("unsupported snapshot version %d (unknown, or a retired layout written by an older build)", data[0])
	}
	r := &recReader{data: data[1:]}
	s := SnapshotState{
		Arrivals:     r.i64(),
		Offers:       r.i64(),
		UtilityBits:  r.u64(),
		SpentBits:    r.u64(),
		GammaMinBits: r.u64(),
		GammaMaxBits: r.u64(),
		PhiBoostBits: r.u64(),
		PacingEpoch:  r.i64(),
	}
	n := r.u32()
	if r.err != nil {
		return SnapshotState{}, r.err
	}
	for i := 0; i < int(n); i++ {
		c := SnapshotCampaign{
			ID:            r.i32(),
			Loc:           geo.Point{X: r.f64(), Y: r.f64()},
			Radius:        r.f64(),
			BudgetBits:    r.u64(),
			SpentBits:     r.u64(),
			Paused:        r.u8() != 0,
			Guaranteed:    r.u8() != 0,
			Floor:         r.f64(),
			Penalty:       r.f64(),
			RateBits:      r.u64(),
			AllowanceBits: r.u64(),
			BillingModel:  model.BillingModel(r.u8()),
			ReserveBits:   r.u64(),
			EventRateBits: r.u64(),
			EscrowBits:    r.u64(),
			ConvertedBits: r.u64(),
			Conversions:   r.i64(),
		}
		nt := r.u32()
		if r.err != nil || int(nt) > r.remaining()/8 {
			return SnapshotState{}, fmt.Errorf("snapshot campaign %d is malformed", i)
		}
		c.Tags = make([]float64, nt)
		for j := range c.Tags {
			c.Tags[j] = r.f64()
		}
		s.Campaigns = append(s.Campaigns, c)
	}
	sb := &s.Billing
	sb.NextID = r.u64()
	sb.EvictNext = r.u64()
	sb.HeldBits = r.u64()
	sb.ReleasedBits = r.u64()
	sb.ConvertedRevBits = r.u64()
	sb.Conversions = r.i64()
	for m := range sb.RevenueBits {
		sb.RevenueBits[m] = r.u64()
	}
	no := r.u32()
	if r.err != nil || int(no) > r.remaining()/21 {
		return SnapshotState{}, errors.New("snapshot escrow table is malformed")
	}
	for i := 0; i < int(no); i++ {
		sb.Open = append(sb.Open, SnapshotOpenOffer{
			ID:       r.u64(),
			Campaign: r.i32(),
			Model:    model.BillingModel(r.u8()),
			Hold:     r.f64(),
		})
	}
	nk := r.u32()
	if r.err != nil || int(nk) > r.remaining()/4 {
		return SnapshotState{}, errors.New("snapshot idempotency window is malformed")
	}
	for i := 0; i < int(nk); i++ {
		kl := r.u32()
		if r.err != nil || int(kl) > r.remaining() {
			return SnapshotState{}, errors.New("snapshot idempotency window is malformed")
		}
		sb.IdemKeys = append(sb.IdemKeys, string(r.data[r.off:r.off+int(kl)]))
		r.off += int(kl)
	}
	if err := r.done(); err != nil {
		return SnapshotState{}, err
	}
	return s, nil
}
