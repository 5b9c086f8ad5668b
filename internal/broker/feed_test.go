package broker

import (
	"errors"
	"testing"

	"muaa/internal/workload"
)

// scanKey orders campaigns the way gather emits them and the walk meets
// them: by the row, then the column, of the grid cell holding the campaign's
// location, then by id.
func scanKey(b *Broker, id int32) int64 {
	loc := b.dir.Load().row(id).loc
	cell := func(v float64) int64 { return min(int64(min(max(v, 0), 1)*gridCells), gridCells-1) }
	return (cell(loc.Y)*gridCells+cell(loc.X))<<32 | int64(id)
}

// arrivalOf is the arrival a workload op describes.
func arrivalOf(op workload.BrokerOp) Arrival {
	return Arrival{Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour}
}

// opFeed feeds a workload stream to one broker: serially, or through
// ArriveBatch windows of up to batch arrivals that flush before any other
// op. OpConvert collects one of the escrowed offers the feed was served (a
// miss — evicted, or converted elsewhere — is part of the contract); a stats
// read reads Stats and Campaigns. Failures go to tb.Error, so a feed may run
// on a goroutine of its own. logged, when set, is called after every op that
// appended a WAL record.
type opFeed struct {
	tb     testing.TB
	b      *Broker
	batch  int
	logged func()
	window []Arrival
	open   []uint64
}

// apply runs one op and returns the offers a serial arrival committed.
func (d *opFeed) apply(op workload.BrokerOp) (offers []Offer) {
	if op.Kind == workload.OpArrival && d.batch > 0 {
		if d.window = append(d.window, arrivalOf(op)); len(d.window) >= d.batch {
			d.flush()
		}
		return nil
	}
	d.flush()
	var err error
	switch op.Kind {
	case workload.OpArrival:
		offers, err = d.b.Arrive(arrivalOf(op))
		d.served(offers)
	case workload.OpTopUp:
		err = d.b.TopUp(op.Campaign, op.Amount)
	case workload.OpPause:
		err = d.b.SetPaused(op.Campaign, op.Paused)
	case workload.OpConvert:
		if len(d.open) == 0 {
			return nil
		}
		i := int(op.Pick % uint64(len(d.open)))
		id := d.open[i]
		d.open = append(d.open[:i], d.open[i+1:]...)
		if _, err = d.b.Convert(id, ""); errors.Is(err, ErrOfferUnknown) {
			return nil
		}
	default:
		d.b.Stats()
		d.b.Campaigns()
		return nil
	}
	d.done(err)
	return offers
}

// flush submits the pending window, if any, as one ArriveBatch call.
func (d *opFeed) flush() {
	if len(d.window) == 0 {
		return
	}
	for _, res := range d.b.ArriveBatch(d.window) {
		if res.Err != nil {
			d.tb.Error(res.Err)
		}
		d.served(res.Offers)
	}
	d.window = d.window[:0]
	d.done(nil)
}

// done reports a failed op, or a logged one.
func (d *opFeed) done(err error) {
	if err != nil {
		d.tb.Error(err)
	} else if d.logged != nil {
		d.logged()
	}
}

// served adds the escrowed offers among offers to the open set.
func (d *opFeed) served(offers []Offer) {
	for _, o := range offers {
		if o.ID != 0 {
			d.open = append(d.open, o.ID)
		}
	}
}
