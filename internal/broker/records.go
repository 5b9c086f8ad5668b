package broker

// The structured form of the broker's WAL records and snapshot, and their
// exported decoders. Writers fill these same structs and run the codec
// (codec.go) in write mode; the broker's own recovery (applyRecord/
// applySnapshot) and the audit path (ReplayAudit, cmd/muaa-audit) run it in
// read mode — one statement of each byte layout.

import (
	"fmt"
	"math"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// RecordKind discriminates decoded WAL records.
type RecordKind byte

// The WAL record types, each the first payload byte of its one current
// layout. A record is the delta of exactly one committed broker mutation. A
// type byte is never reused for a different layout: 1, 4, 5, 6, 8, 10 and 11
// named layouts that are no longer written or read, and DecodeRecord refuses
// them like any unknown byte.
const (
	RecordRegister   RecordKind = 9
	RecordTopUp      RecordKind = 2
	RecordPause      RecordKind = 3
	RecordArrivals   RecordKind = 13
	RecordConversion RecordKind = 12
	RecordController RecordKind = 7
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
// input and allocates O(len(rec)); malformed payloads return an error.
func DecodeRecord(rec []byte) (DecodedRecord, error) {
	c := codec{read: true, data: rec}
	var d DecodedRecord
	c.record(&d)
	if err := c.done(); err != nil {
		return DecodedRecord{}, err
	}
	return d, nil
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
	c := codec{read: true, data: data}
	var s SnapshotState
	c.snapshot(&s)
	if err := c.done(); err != nil {
		return SnapshotState{}, err
	}
	return s, nil
}
