package broker

// The one statement of every byte layout the broker persists (DESIGN §10).
// Each layout is a single codec method that both writes and reads it, so the
// field order and widths a writer emits are by construction the ones replay
// and audit decode. Integers are little-endian and floats their IEEE-754
// bits: the bytes on disk are the bytes in the atomics.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"muaa/internal/geo"
)

// arrivalsAuction is bit 0 of an arrivals record's flags byte: the arrivals
// were auction-resolved, so replay folds their immediate charges into the
// per-model revenue counters exactly as the live commit did. The other bits
// are reserved and must be zero.
const arrivalsAuction byte = 1

// controllerRecVersion is the internal version byte of controller record
// payloads; bump on any layout change so old binaries fail loudly.
const controllerRecVersion byte = 1

// snapshotVersion is the first byte of every snapshot payload. Versions 1
// and 2 (no controller state, no billing state) are retired and refused.
const snapshotVersion byte = 3

// codec appends to buf (write mode) or decodes data from off (read mode).
// Every field method takes a pointer: write mode only loads it, read mode
// stores what it decoded. Reads are bounds-checked and the first failure
// sticks in err for done to report, so decoding never panics whatever the
// input; after a failure every count reads as 0, so nothing more is
// allocated.
type codec struct {
	read bool
	buf  []byte
	data []byte
	off  int
	err  error
}

var errTruncated = errors.New("truncated payload")

func (c *codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// next consumes n bytes of data, or returns nil when fewer are left.
func (c *codec) next(n int) []byte {
	if n > len(c.data)-c.off {
		c.fail(errTruncated)
		return nil
	}
	c.off += n
	return c.data[c.off-n : c.off]
}

// done is the read verdict: the sticky error, else whether the payload was
// consumed to its last byte.
func (c *codec) done() error {
	if c.err == nil && c.off != len(c.data) {
		return fmt.Errorf("%d trailing bytes", len(c.data)-c.off)
	}
	return c.err
}

func (c *codec) u8(v *byte) {
	if !c.read {
		c.buf = append(c.buf, *v)
	} else if p := c.next(1); p != nil {
		*v = p[0]
	}
}

func (c *codec) u32(v *uint32) {
	if !c.read {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if p := c.next(4); p != nil {
		*v = binary.LittleEndian.Uint32(p)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.read {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if p := c.next(8); p != nil {
		*v = binary.LittleEndian.Uint64(p)
	}
}

func (c *codec) i32(v *int32) {
	if !c.read {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	} else if p := c.next(4); p != nil {
		*v = int32(binary.LittleEndian.Uint32(p))
	}
}

// u32int carries a non-negative int in 32 bits, zero-extended on read.
func (c *codec) u32int(v *int) {
	if !c.read {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	} else if p := c.next(4); p != nil {
		*v = int(binary.LittleEndian.Uint32(p))
	}
}

func (c *codec) i64(v *int64) {
	if !c.read {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	} else if p := c.next(8); p != nil {
		*v = int64(binary.LittleEndian.Uint64(p))
	}
}

func (c *codec) f64(v *float64) {
	if !c.read {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
	} else if p := c.next(8); p != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
}

// flag is a bool as one byte. Writers emit only 0 and 1 and a read refuses
// anything else, so every accepted payload re-encodes to itself.
func (c *codec) flag(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	if c.u8(&b); c.read {
		if b > 1 {
			c.fail(fmt.Errorf("flag byte %d is neither 0 nor 1", b))
		}
		*v = b == 1
	}
}

// count carries a sequence length as u32. Write mode appends n and returns
// it; read mode returns the length read, refusing — sticky error, result 0 —
// one the rest of the payload cannot hold at size bytes per element, so a
// decoder allocates O(payload) whatever a count claims.
func (c *codec) count(n, size int) int {
	u := uint32(n)
	if c.u32(&u); !c.read {
		return n
	}
	if left := len(c.data) - c.off; c.err == nil && int(u) > left/size {
		c.fail(fmt.Errorf("count %d overruns the %d bytes left", u, left))
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// seq carries the length of *s; read mode also allocates *s, so the caller's
// loop over *s codes exactly the elements present.
func seq[T any](c *codec, s *[]T, size int) {
	if n := c.count(len(*s), size); c.read && n > 0 {
		*s = make([]T, n)
	}
}

// str is a length-prefixed byte string.
func (c *codec) str(v *string) {
	n := c.count(len(*v), 1)
	if !c.read {
		c.buf = append(c.buf, *v...)
	} else if p := c.next(n); p != nil {
		*v = string(p)
	}
}

func (c *codec) f64s(s *[]float64) {
	seq(c, s, 8)
	for i := range *s {
		c.f64(&(*s)[i])
	}
}

func (c *codec) point(p *geo.Point) {
	c.f64(&p.X)
	c.f64(&p.Y)
}

// record is every WAL record layout: the type byte, then that kind's fields.
// A type byte is never reused for a different layout; retired ones (1, 4, 5,
// 6, 8, 10, 11) are refused like any unknown byte.
func (c *codec) record(d *DecodedRecord) {
	c.u8((*byte)(&d.Kind))
	switch d.Kind {
	case RecordRegister:
		c.i32(&d.Campaign)
		c.point(&d.Loc)
		c.f64(&d.Radius)
		c.f64(&d.Budget)
		c.flag(&d.Guaranteed)
		c.f64(&d.Floor)
		c.f64(&d.Penalty)
		c.u8((*byte)(&d.Billing.Model))
		c.f64(&d.Billing.ReserveECPM)
		c.f64(&d.Billing.EventRate)
		c.f64s(&d.Tags)
	case RecordTopUp:
		c.i32(&d.Campaign)
		c.f64(&d.Amount)
	case RecordPause:
		c.i32(&d.Campaign)
		c.flag(&d.Paused)
	case RecordArrivals:
		if n := c.arrivalsHeader(len(d.Arrivals), &d.Auction); c.read && n > 0 {
			d.Arrivals = make([]ArrivalRecord, n)
		}
		for i := range d.Arrivals {
			c.arrivalBody(&d.Arrivals[i])
		}
	case RecordConversion:
		c.u64(&d.OfferID)
		c.i32(&d.Campaign)
		c.u8((*byte)(&d.Model))
		c.f64(&d.Charge)
		c.str(&d.EventKey)
	case RecordController:
		version := controllerRecVersion
		if c.u8(&version); version != controllerRecVersion {
			c.fail(fmt.Errorf("unsupported controller record version %d", version))
		}
		c.i64(&d.Epoch)
		c.u64(&d.BoostBits)
		seq(c, &d.Controller, 20)
		for i := range d.Controller {
			e := &d.Controller[i]
			c.i32(&e.Campaign)
			c.u64(&e.RateBits)
			c.u64(&e.AllowanceBits)
		}
	default:
		c.fail(fmt.Errorf("unsupported record type %d (unknown, or a retired layout written by an older build)", byte(d.Kind)))
	}
}

// arrivalsHeader is an arrivals record after its type byte: the body count
// n ≥ 1 — returned, and bounded on read by the smallest body, 60 bytes — then
// the flags byte, whose only defined bit is arrivalsAuction. The pipeline
// writes it before the window's first commit and one arrivalBody after each.
func (c *codec) arrivalsHeader(n int, auction *bool) int {
	n = c.count(n, 60)
	var flags byte
	if *auction {
		flags = arrivalsAuction
	}
	if c.u8(&flags); c.read {
		if n == 0 || flags&^arrivalsAuction != 0 {
			c.fail(fmt.Errorf("malformed arrivals header: %d bodies, flags %#x", n, flags))
		}
		*auction = flags == arrivalsAuction
	}
	return n
}

// arrivalBody is one arrival inside an arrivals record: the γ bounds as
// they stood right after its commit, the customer's own features — what
// offline audit replays into an oracle problem — and every offer charged.
// Replay folds the bounds with Min/Max, exact for a serial history and safe
// under concurrency because the bounds are monotone.
func (c *codec) arrivalBody(e *ArrivalRecord) {
	c.f64(&e.GammaMin)
	c.f64(&e.GammaMax)
	a := &e.Customer
	c.point(&a.Loc)
	c.u32int(&a.Capacity)
	c.f64(&a.ViewProb)
	c.f64(&a.Hour)
	c.f64s(&a.Interests)
	seq(c, &e.Offers, 49)
	for i := range e.Offers {
		c.offer(&e.Offers[i])
	}
}

// offer is always 49 bytes: a fixed-cost offer is the zero-billing instance
// (id, charge eCPM and hold zero), not a second layout. Efficiency is derived
// at serve time and not persisted.
func (c *codec) offer(o *Offer) {
	c.i32(&o.Campaign)
	c.u32int(&o.AdType)
	c.f64(&o.Cost)
	c.f64(&o.Utility)
	c.u64(&o.ID)
	c.f64(&o.ChargeECPM)
	c.f64(&o.Hold)
	c.u8((*byte)(&o.Model))
}

// snapshot is the compacted-state layout: the version byte, the broker
// accumulators, every campaign, then the billing section. Versions 1 and 2
// are retired and refused like any unknown byte.
func (c *codec) snapshot(s *SnapshotState) {
	version := snapshotVersion
	if c.u8(&version); version != snapshotVersion {
		c.fail(fmt.Errorf("unsupported snapshot version %d (unknown, or a retired layout written by an older build)", version))
		return
	}
	c.i64(&s.Arrivals)
	c.i64(&s.Offers)
	c.u64(&s.UtilityBits)
	c.u64(&s.SpentBits)
	c.u64(&s.GammaMinBits)
	c.u64(&s.GammaMaxBits)
	c.u64(&s.PhiBoostBits)
	c.i64(&s.PacingEpoch)
	seq(c, &s.Campaigns, 123)
	for i := range s.Campaigns {
		sc := &s.Campaigns[i]
		c.i32(&sc.ID)
		c.point(&sc.Loc)
		c.f64(&sc.Radius)
		c.u64(&sc.BudgetBits)
		c.u64(&sc.SpentBits)
		c.flag(&sc.Paused)
		c.flag(&sc.Guaranteed)
		c.f64(&sc.Floor)
		c.f64(&sc.Penalty)
		c.u64(&sc.RateBits)
		c.u64(&sc.AllowanceBits)
		c.u8((*byte)(&sc.BillingModel))
		c.u64(&sc.ReserveBits)
		c.u64(&sc.EventRateBits)
		c.u64(&sc.EscrowBits)
		c.u64(&sc.ConvertedBits)
		c.i64(&sc.Conversions)
		c.f64s(&sc.Tags)
	}
	sb := &s.Billing
	c.u64(&sb.NextID)
	c.u64(&sb.EvictNext)
	c.u64(&sb.HeldBits)
	c.u64(&sb.ReleasedBits)
	c.u64(&sb.ConvertedRevBits)
	c.i64(&sb.Conversions)
	for m := range sb.RevenueBits {
		c.u64(&sb.RevenueBits[m])
	}
	seq(c, &sb.Open, 21)
	for i := range sb.Open {
		o := &sb.Open[i]
		c.u64(&o.ID)
		c.i32(&o.Campaign)
		c.u8((*byte)(&o.Model))
		c.f64(&o.Hold)
	}
	seq(c, &sb.IdemKeys, 4)
	for i := range sb.IdemKeys {
		c.str(&sb.IdemKeys[i])
	}
}
