package broker

// The decision kernel: PAPER.md's O-AFA (Alg. 2) written once.
//
//	gather → terms → walk → trim → commit
//
// Serving (arriveBatch, the one arrival pipeline) and Explain run the same
// stages over a scanArena; they differ only in whose arena it is, where the
// γ-state goes afterwards, and how much the kernel is asked to write down:
//
//  1. gather: grid probes into ar.ids, stripe by stripe, so the ids come out
//     in the grids' scan order — by cell row, then cell, then registration
//     (stripes fall on whole cell rows, so this is one order at every stripe
//     count). That is the walk order: PAPER.md leaves open in which order an
//     arrival's valid vendors are examined, and only the broker's own online
//     γ estimate depends on it. A window gathers a chunk of arrivals before
//     it scans the first of them.
//  2. terms, two loops. The read sweep touches every gathered campaign's two
//     page rows once (hotRow, walkRow: a 64-byte line each) and copies them,
//     with Eq. 5's covariance against the fleet's vendor slab, into flat
//     ar.rows, with no branch that depends on what it read, so the misses of
//     many candidates overlap; the fleet's rows are laid out in the same scan
//     order (see fleet), so the pages and the slab are read as near-forward
//     streams, and *campaign is never touched. The filter loop then runs
//     the filter sequence (paused → budget → tag dimension → score) and the
//     γ-independent per-candidate terms over the rows, into flat arrays. The
//     walk reads the rows too, not the fleet. The score is Eq. 5 under unit
//     activity weights: the arrival's half is prepared here once, each
//     campaign's was at registration (model.UnitPearson). This stage never
//     reads γ, so running it ahead of the walk cannot change a decision.
//  3. walk: the sequential threshold walk — the only loop that compares an
//     efficiency with φ(δ). γ observations feed forward from candidate i to
//     candidate i+1's threshold, so it must stay in candidate order. Every
//     ad type is priced through the campaign's billing contract; for the
//     fixed contract bid, reserve and expected cost reduce to the catalog
//     cost bit for bit, so an all-fixed fleet computes the seed arithmetic.
//  4. trim: the slot race. Every admitted candidate serves one item and
//     ranks by one efficiency; the top a_i by (rank desc, id asc) win. Slots
//     apply when the arrival is auction-resolved (a billed campaign exists,
//     or Config.Slate) and has more than one slot. Then a candidate serves
//     its max-utility item, an equal-utility tie going to the cheaper
//     expected cost, ranks by its best admitted efficiency, and the winners
//     are ordered even when all fit — the MCKP hull-greedy under a slot
//     count, whose classes open at their first hull increment and serve
//     their hull completion. Otherwise it serves the first max-utility item
//     in catalog order and ranks by that item's efficiency, and winners
//     that all fit are offered in ascending id.
//  5. commit: one charge per winner (Broker.charge, shared with WAL replay).
//
// The floating-point operation sequence is pinned by the golden transcripts
// in determinism_test.go.
//
// Money safety: affordability is checked against the raw per-event cost
// t.Cost (not the expected cost), and every possible charge — catalog cost,
// CPM second price /1000, deferred hold charge/1000/rate — is ≤ t.Cost, so
// with remaining = budget − spent − escrow the invariant
// spent + escrow ≤ budget (+ the 1e-12 admission slack) holds through offer,
// conversion (escrow → spent, 1:1) and expiry (escrow released).

import (
	"cmp"
	"math"
	"slices"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/trace"
)

// gammaState is the O-AFA γ estimator as plain fields: the running bounds of
// every efficiency observed and the configured threshold base (0 = derive).
// It is the single implementation of φ(δ), γ observation and the in-effect
// g. The serving path seeds one per arrival from the broker's atomics and
// merges it back before the arrival's WAL record is cut; Explain seeds one
// and throws it away; the threshold gauges seed one per scrape.
type gammaState struct {
	min, max float64 // +Inf / 0 until the first observation
	cfgG     float64
	lnOf, ln float64 // pow's cache: ln = Log(lnOf); kept across gammaSeed
}

// gammaSeed snapshots the live bounds into g, keeping g's ln cache (the
// serving path reseeds its arena's γ-state once per arrival). γ_max is read
// first: writers lower γ_min before raising γ_max (gammaMerge), so a
// snapshot that sees γ_max > 0 — the "seen" signal — also holds a finite
// γ_min.
func (b *Broker) gammaSeed(g *gammaState) {
	g.max = b.gammaMax.Load()
	g.min, g.cfgG = b.gammaMin.Load(), b.cfg.G
}

// gammaMerge folds an arrival's γ-state back into the live bounds, γ_min
// first (see gammaSeed). Min/Max are monotone, so concurrent arrivals on
// disjoint stripes lose no observation whatever order they merge in.
func (b *Broker) gammaMerge(g *gammaState) {
	b.gammaMin.Min(g.min)
	b.gammaMax.Max(g.max)
}

// observe folds a positive finite efficiency into the bounds.
func (g *gammaState) observe(eff float64) {
	if eff <= 0 || math.IsNaN(eff) || math.IsInf(eff, 0) {
		return
	}
	if eff < g.min {
		g.min = eff
	}
	if eff > g.max {
		g.max = eff
	}
}

// base is the threshold base g in effect: configured, or derived from the
// bounds as e·γ_max/γ_min clamped to [2e, 1e9]. Written out here, not
// core.TuneG: the kernel is the system under test and core its oracle
// (TestKernelMatchesCoreSession).
func (g *gammaState) base() float64 {
	if g.cfgG != 0 {
		return g.cfgG
	}
	base := 2 * math.E
	if g.max > g.min {
		base = math.E * g.max / g.min
		if base < 2*math.E {
			base = 2 * math.E
		}
		if base > 1e9 {
			base = 1e9
		}
	}
	return base
}

// threshold evaluates the adaptive admission threshold φ(δ) = γ_min/e · g^δ
// at used-budget ratio delta.
func (g *gammaState) threshold(delta float64) float64 {
	if g.max == 0 {
		return 0 // nothing observed yet: admit anything (paper's intuition)
	}
	return g.min / math.E * math.Pow(g.base(), delta)
}

// powMemo is a threshold memo: pow = base^delta.
type powMemo struct{ base, delta, pow float64 }

// thresholdAt is threshold with g^δ taken from memo when memo priced the same
// two floats — then it is the same bits; a miss reprices memo and stores it
// through home, the campaign's walk row, for the next arrival.
func (g *gammaState) thresholdAt(delta float64, memo, home *powMemo) float64 {
	if g.max == 0 {
		return 0
	}
	if base := g.base(); memo.base != base || memo.delta != delta {
		*memo = powMemo{base, delta, g.pow(base, delta)}
		*home = *memo
	}
	return g.min / math.E * memo.pow
}

// pow is math.Pow(base, delta), bit for bit. For 0 < δ < 0.5 and a finite
// base > 0, ≠ 1, Pow computes exactly Exp(δ·Log(base)) — its Modf leaves an
// integer part of 0 and its closing Ldexp shifts by 0 — so that domain
// reuses Log(base) until the base moves. Every other input, δ = 0.5's Sqrt
// included, goes to Pow.
func (g *gammaState) pow(base, delta float64) float64 {
	if !(delta > 0 && delta < 0.5 && base > 0 && base != 1 && base <= math.MaxFloat64) {
		return math.Pow(base, delta)
	}
	if g.lnOf != base {
		g.lnOf, g.ln = base, math.Log(base)
	}
	return math.Exp(delta * g.ln)
}

// reportedG is the reporting-only, unclamped base behind Stats.G and
// muaa_broker_threshold_g: the configured value, else the raw e·γ_max/γ_min
// once two distinct efficiencies exist, else 0. Golden-pinned; admission
// never reads it (base is what φ uses).
func (g *gammaState) reportedG() float64 {
	if g.cfgG == 0 && g.max > g.min && g.max > 0 {
		return math.E * g.max / g.min
	}
	return g.cfgG
}

// guaranteeRelief scales the admission threshold for a guaranteed campaign
// that is behind its pro-rated delivery floor: φ is quartered, not zeroed, so
// catching up still prefers efficient offers.
const guaranteeRelief = 0.25

// scanArena is the reusable scratch one decision runs in. All slices are
// grown by append and retained at high-water capacity — rows to the largest
// gathered set, whatever the fleet or its slab grow to — and the prepared
// customer is reused across arrivals, so the steady-state serving path
// allocates nothing and scoring runs over dense float64 arrays.
//
// Ownership rule: an arrival (or batch) that locks the contiguous stripe
// interval [s0, s1] uses the arena of shard s0 — the lowest locked stripe.
// Any two lock sets that share a stripe overlap as intervals, so two holders
// can never pick the same lowest stripe while both hold it; the arena is
// therefore exclusively owned for the duration of the locks, with no
// synchronization beyond the stripe mutexes themselves. Explain brings a
// private arena instead, so diagnostic traffic never moves a stripe arena's
// high-water marks.
type scanArena struct {
	// ids is the gathered candidate id set, in scan order.
	ids []int32

	// wids is a window chunk's gathered ids, one scan-order run per arrival:
	// the chunk's k-th arrival owns wids[woff[k]:woff[k+1]], and ids is the
	// run being decided.
	wids []int32
	woff []int32

	// rows is terms' read sweep: rows[i] is what gathered campaign ids[i]
	// looked like, each field read once under the stripe locks. Pointer-free.
	rows []termRow

	// Struct-of-arrays terms for candidates that survived the filters,
	// indexed together: cand[i] is the survivor's index into ids and rows,
	// and its Eq. 4 base value is base[i], its
	// budget-usage ratio delta[i], its pacing-capped spendable budget
	// remaining[i], its raw unspent budget headroom[i], and relief[i] marks a
	// guaranteed campaign behind its pro-rated delivery floor.
	cand      []int32
	base      []float64
	delta     []float64
	remaining []float64
	headroom  []float64
	relief    []bool

	// gamma is the γ-state the walk reads and feeds.
	gamma gammaState

	// reps holds one entry per candidate the walk admitted, in scan order.
	reps []rep

	// cands holds the priced winners, in slot order, awaiting commit.
	cands []candidate

	// rec turns per-candidate attribution on: every gathered candidate then
	// appends exactly one disposition event to fev (see funnel.go) — the
	// serving path sets it when the funnel is enabled, Explain always. why,
	// set only by Explain, additionally keeps the walk's per-candidate
	// detail. Both are tested as plain fields, never through an interface, so
	// the disabled cost is a predictable branch.
	rec bool
	fev []funnelEvent
	why *explainLog

	// customer is the arrival's half of Eq. 5, prepared once in terms and
	// scored against every candidate's run of the vendor slab.
	customer model.UnitPearson
}

// termRow is one gathered campaign as terms' read sweep found it: its fleet
// row index, its hot row (allowance only on a controller broker), its walk
// row, and the vendor half of Eq. 5 already folded with the arrival's — covXY
// is the covariance of the two centred vectors (0 when their dimensions
// differ, which mismatch records), covYY the campaign's own sum of squares.
// The walk then reads billing and the threshold memo here, and the memo's
// home and the funnel row through row, not through the id → row map.
type termRow struct {
	budget, spent, escrow, allowance float64
	loc                              geo.Point
	floor                            float64
	covXY, covYY                     float64
	billing                          model.Billing
	memo                             powMemo
	row                              int32
	paused, guaranteed, mismatch     bool
}

// rep is one admitted candidate awaiting the slot race: its campaign id, the
// item it serves (ad type k, its utility, efficiency and eCPM bid) and the
// efficiency it ranks by.
type rep struct {
	ci   int32 // index into ar.cand
	k    int32 // ad type
	id   int32
	won  bool
	util float64
	eff  float64
	bid  float64
	rank float64
}

// candidate pairs a priced offer with the hot row it draws on so commit can
// charge it without re-resolving the ID.
type candidate struct {
	Offer
	row *hotRow
}

// scanTally counts how one decision disposed of its candidates, by funnel
// disposition: the counts partition gathered exactly as the fev events do,
// because drop and resolve write both. Folded into the metrics counters (and
// the trace's ScanCounts) after the scan so the loops stay branch-light.
type scanTally struct {
	gathered uint64
	disp     [numDispositions]uint64
}

// add folds another tally into t (batch aggregation).
func (t *scanTally) add(o scanTally) {
	t.gathered += o.gathered
	for d := range t.disp {
		t.disp[d] += o.disp[d]
	}
}

// admitted is the number of candidates the walk admitted — what the scan
// outcome counters and traces call "offered"; the capacity resolve then
// splits it into offered and displaced.
func (t *scanTally) admitted() uint64 { return t.disp[dispOffered] + t.disp[dispDisplaced] }

// counts converts the tally to the trace view.
func (t *scanTally) counts() trace.ScanCounts {
	return trace.ScanCounts{
		Gathered:       t.gathered,
		Displaced:      t.disp[dispDisplaced],
		Offered:        t.admitted(),
		Paused:         t.disp[dispPaused],
		Exhausted:      t.disp[dispExhausted],
		Mismatch:       t.disp[dispTagMismatch],
		LowScore:       t.disp[dispLowScore],
		Unaffordable:   t.disp[dispUnaffordable],
		BelowThreshold: t.disp[dispBelowThreshold],
		BelowReserve:   t.disp[dispBelowReserve],
	}
}

// drop disposes of gathered candidate at (its index into ar.ids), which will
// not be offered.
func (ar *scanArena) drop(t *scanTally, at int, d funnelDisposition) {
	t.disp[d]++
	if ar.rec {
		ar.fev = append(ar.fev, funnelEvent{at: int32(at), disp: d})
	}
}

// gather probes the locked shards' grids for campaigns covering loc,
// appends their ids to ar.wids as one run in scan order — stripe by stripe,
// each grid's by cell row, cell and registration — leaves ar.ids viewing that
// run, and returns the fleet: the campaign directory, the rows and the vendor
// slab, one header. Loaded after the shard locks and the probes: any id a
// locked grid returned was inserted under that shard's lock, and its
// registration published the fleet header before the grid entry, so this
// load observes it — every gathered id indexes the directory. A re-layout
// takes every stripe lock, so none replaces the header while the caller holds
// its locks; registrations only append, so the last header a chunk loads
// covers every run gathered before it.
func (b *Broker) gather(ar *scanArena, loc geo.Point, s0, s1 int) *fleet {
	n0 := len(ar.wids)
	for i := s0; i <= s1; i++ {
		ar.wids = b.shards[i].grid.CoveredBy(ar.wids, loc)
	}
	ar.ids = ar.wids[n0:]
	return b.dir.Load()
}

// scan is the serving path's decision step: seed the arena's γ-state from
// the live bounds, decide, merge the observations back — before commit, so
// the WAL record cut after it carries this arrival's γ bits — and fold the
// attribution events while the stripe locks still own the arena. The auction
// flag must have been read after the stripe locks were taken: a billed
// campaign visible in any held shard's grid was inserted under that shard's
// lock after billing.active flipped, so it is never resolved unpriced.
func (b *Broker) scan(ar *scanArena, a *Arrival, fl *fleet, auction bool) scanTally {
	ar.rec = b.funnel != nil
	b.gammaSeed(&ar.gamma)
	tally := b.decide(ar, a, fl, auction)
	b.gammaMerge(&ar.gamma)
	if b.funnel != nil {
		b.funnel.fold(ar, fl)
	}
	return tally
}

// decide runs terms → walk → resolve over ar.ids against ar.gamma, leaving
// the priced winners in ar.cands. It writes nothing outside the arena but the
// threshold memo, a cache.
// Caller holds the stripe locks that produced ar.ids.
func (b *Broker) decide(ar *scanArena, a *Arrival, fl *fleet, auction bool) scanTally {
	var tally scanTally
	tally.gathered = uint64(len(ar.ids))
	ar.fev = ar.fev[:0]
	ar.cands = ar.cands[:0]
	b.terms(ar, a, fl, &tally)
	slots := auction && a.Capacity > 1
	b.walk(ar, fl, &tally, slots)
	if len(ar.reps) == 0 {
		return tally
	}
	b.trim(ar, fl, a.Capacity, slots)
	// Admitted candidates resolve only now: slot winners were offered, the
	// rest were displaced by the slot race.
	tally.disp[dispOffered] = uint64(len(ar.cands))
	tally.disp[dispDisplaced] = uint64(len(ar.reps) - len(ar.cands))
	if ar.rec {
		for i := range ar.reps {
			d := dispDisplaced
			if ar.reps[i].won {
				d = dispOffered
			}
			ar.fev = append(ar.fev, funnelEvent{at: ar.cand[ar.reps[i].ci], disp: d})
		}
	}
	return tally
}

// terms reads every gathered campaign once into ar.rows, then runs the filter
// sequence over the rows and computes the γ-independent terms of every
// survivor. Eq. 5 correlates two vectors of one taxonomy; live arrivals and
// campaigns come from untrusted clients, so a dimension mismatch is
// ineligibility here, never the scorer's panic.
func (b *Broker) terms(ar *scanArena, a *Arrival, fl *fleet, tally *scanTally) {
	ar.cand = ar.cand[:0]
	ar.base = ar.base[:0]
	ar.delta = ar.delta[:0]
	ar.remaining = ar.remaining[:0]
	ar.headroom = ar.headroom[:0]
	ar.relief = ar.relief[:0]
	ar.customer.Prepare(a.Interests)

	// The read sweep. Everything the filters below might want is loaded
	// whether or not they will — half the candidates of a dense market fall at
	// the score, a coin flip per candidate that would otherwise discard the
	// loads speculated past it. The tests here are loop-invariant, or (the
	// dimension) the same way for every campaign of a one-taxonomy fleet.
	dim, controller := len(a.Interests), b.controller != nil
	rows := slices.Grow(ar.rows[:0], len(ar.ids))[:len(ar.ids)]
	ar.rows = rows
	for i, id := range ar.ids {
		row := fl.rowOf[id]
		h, w, r := fl.hotAt(row), fl.walkAt(row), &rows[i]
		r.row = row
		r.paused = h.paused.Load()
		r.budget = h.budget.Load()
		r.spent = h.spent.Load()
		r.escrow = h.escrow.Load()
		if controller {
			r.allowance = h.allowance.Load()
		}
		r.loc, r.guaranteed, r.floor = h.loc, h.guaranteed, h.floor
		r.billing, r.memo = w.billing, w.memo
		v := fl.vendorAt(row)
		r.mismatch, r.covXY, r.covYY = len(v) != dim, 0, fl.cov[row]
		if !r.mismatch {
			r.covXY = ar.customer.Cov(v)
		}
	}

	for i := range rows {
		r := &rows[i]
		if r.paused {
			ar.drop(tally, i, dispPaused)
			continue
		}
		budget := r.budget
		if budget <= 0 {
			ar.drop(tally, i, dispExhausted)
			continue
		}
		if r.mismatch {
			// Mismatched taxonomies: preference undefined, not served.
			ar.drop(tally, i, dispTagMismatch)
			continue
		}
		spent := r.spent
		s := ar.customer.Correlate(r.covXY, r.covYY)
		if s <= 0 || math.IsNaN(s) {
			ar.drop(tally, i, dispLowScore)
			if ar.why != nil {
				ar.why.lowScore[ar.ids[i]] = s
			}
			continue
		}
		if s > 1 {
			s = 1
		}
		d := a.Loc.Dist(r.loc)
		if d < model.DefaultMinDist {
			d = model.DefaultMinDist
		}
		base := a.ViewProb * s / d
		delta := spent / budget
		relief := r.guaranteed && r.floor > 0 && spent < r.floor*budget*(a.Hour/24)
		// Escrowed budget is committed money: it is unavailable to new offers
		// until the conversion lands or the hold expires. Zero unless the
		// campaign bills per event, and x − 0 is x bit for bit.
		remaining := budget - spent - r.escrow
		headroom := remaining
		if b.cfg.Pacing > 0 {
			// Daily pacing cap: spend so far plus this ad must stay within
			// the hour's pro-rated allowance.
			allowance := b.cfg.Pacing * budget * a.Hour / 24
			if paced := allowance - spent; paced < remaining {
				remaining = paced
			}
		}
		if controller {
			// Controller epoch cap: spend may not pass the allowance the last
			// PacingStep granted (+Inf when uncapped, so this is a no-op for
			// unthrottled campaigns).
			if paced := r.allowance - spent; paced < remaining {
				remaining = paced
			}
		}
		ar.cand = append(ar.cand, int32(i))
		ar.base = append(ar.base, base)
		ar.delta = append(ar.delta, delta)
		ar.remaining = append(ar.remaining, remaining)
		ar.headroom = append(ar.headroom, headroom)
		ar.relief = append(ar.relief, relief)
		if ar.why != nil {
			ar.why.terms = append(ar.why.terms, explainTerms{dist: d, score: s})
		}
	}
}

// boost returns the pacing controller's threshold multiplier: loaded
// once per arrival so every candidate sees the same scaling (PacingStep only
// swaps it under full shard quiescence, which the caller's held locks
// exclude); 1 without a controller.
func (b *Broker) boost() float64 {
	if b.controller == nil {
		return 1
	}
	return b.phiBoost.Load()
}

// walk is the sequential O-AFA threshold walk over the surviving candidates,
// in candidate order — each candidate's threshold reads the γ bounds as
// updated by every earlier candidate's observations. A candidate with an
// admitted item joins ar.reps carrying the item it serves and its rank under
// the slot rules in force (see the stage 4 note above).
func (b *Broker) walk(ar *scanArena, fl *fleet, tally *scanTally, slots bool) {
	adTypes := b.cfg.AdTypes
	g, why := &ar.gamma, ar.why
	boost := b.boost()
	ar.reps = ar.reps[:0]
	for i, k := range ar.cand {
		r := &ar.rows[k]
		phi := g.thresholdAt(ar.delta[i], &r.memo, &fl.walkAt(r.row).memo)
		if boost != 1 {
			phi *= boost
		}
		if ar.relief[i] {
			// Guaranteed delivery behind the pro-rated floor: relax admission
			// so the campaign catches up before the penalty accrues. The
			// relief factor keeps φ positive — the threshold is softened, not
			// suspended.
			phi *= guaranteeRelief
		}
		if why != nil {
			why.phi = append(why.phi, phi)
		}
		bi := &r.billing
		base, remaining := ar.base[i], ar.remaining[i]
		bestK, bestU, bestEff, bestBid, bestExp, rank := -1, 0.0, 0.0, 0.0, 0.0, 0.0
		affordable, aboveReserve := false, false
		for k, t := range adTypes {
			if t.Cost > remaining+1e-12 {
				if why != nil {
					why.bid(k, t, bidUnaffordable, 0, 0, 0)
				}
				continue
			}
			affordable = true
			bid := bi.BidECPM(t.Cost)
			if bid < bi.ReserveECPM {
				// Reserve-priced out of the auction.
				if why != nil {
					why.bid(k, t, bidBelowReserve, bid, 0, 0)
				}
				continue
			}
			aboveReserve = true
			expCost := bi.ExpectedCost(t.Cost)
			util := base * t.Effect
			eff := util / expCost
			g.observe(eff)
			// A zero-utility item can meet φ only while φ is still 0; it is
			// worth no slot, so it stays out.
			if eff < phi || util <= 0 {
				if why != nil {
					why.bid(k, t, bidBelowThreshold, bid, util, eff)
				}
				continue
			}
			if why != nil {
				why.bid(k, t, bidAdmitted, bid, util, eff)
			}
			if util > bestU || slots && util == bestU && expCost < bestExp {
				bestK, bestU, bestEff, bestBid, bestExp = k, util, eff, bid, expCost
			}
			rank = max(rank, eff)
		}
		switch {
		case bestK >= 0:
			if !slots {
				rank = bestEff
			}
			ar.reps = append(ar.reps, rep{ci: int32(i), k: int32(bestK), id: ar.ids[k],
				util: bestU, eff: bestEff, bid: bestBid, rank: rank})
		case aboveReserve:
			ar.drop(tally, int(k), dispBelowThreshold)
		case affordable:
			// Every affordable bid fell below the campaign's own reserve.
			ar.drop(tally, int(k), dispBelowReserve)
		case ar.headroom[i] < b.minAdCost:
			// Not even the cheapest ad fits the unspent budget: the campaign
			// is spent out until a top-up.
			ar.drop(tally, int(k), dispExhausted)
		default:
			// Unspent budget exists but the pacing allowance withheld it.
			ar.drop(tally, int(k), dispUnaffordable)
		}
	}
}

// ranksBefore is the slot race's total order: rank descending, then campaign
// id ascending (candidates are unique).
func ranksBefore(x, y *rep) bool {
	if x.rank != y.rank {
		return x.rank > y.rank
	}
	return x.id < y.id
}

// trim resolves the slot race: the top `capacity` candidates by ranksBefore
// win, in rank order, and the first one displaced is the runner-up whose
// served item's bid prices auction-billed winners. When all fit and slots do
// not apply, every candidate wins, in ascending id.
func (b *Broker) trim(ar *scanArena, fl *fleet, capacity int, slots bool) {
	reps := ar.reps
	n, runnerBid := len(reps), 0.0
	if slots || n > capacity {
		// Partial insertion selection: reps[:top] becomes the ranked best
		// top = capacity+1 (all n when fewer), the rest stays behind it
		// unordered. The order is total, so any selection yields the same
		// winners in the same order; this one is a single pass when capacity
		// is small, as it always is.
		top := min(capacity+1, n)
		for j := 1; j < n; j++ {
			i := j
			if j >= top {
				if !ranksBefore(&reps[j], &reps[top-1]) {
					continue
				}
				i = top - 1
				reps[i], reps[j] = reps[j], reps[i]
			}
			for ; i > 0 && ranksBefore(&reps[i], &reps[i-1]); i-- {
				reps[i], reps[i-1] = reps[i-1], reps[i]
			}
		}
	} else {
		// Everyone wins and no rank orders them: offers go out by campaign
		// id, whatever order the walk met them in.
		slices.SortFunc(reps, func(x, y rep) int { return cmp.Compare(x.id, y.id) })
	}
	if n > capacity {
		n, runnerBid = capacity, reps[capacity].bid
	}
	for j := range reps[:n] {
		reps[j].won = true
		ar.cands = append(ar.cands, priceOffer(fl, &ar.rows[ar.cand[reps[j].ci]], b.cfg.AdTypes, &reps[j], runnerBid))
	}
}

// priceOffer builds the committed-offer candidate for one slot winner. Fixed
// billing bypasses the auction: the offer carries the catalog cost alone.
// Auction billing pays min(own bid, max(reserve, runner-up bid)) in eCPM
// (second price with reserve) — charged now for CPM, escrowed as a per-event
// hold for CPC/CPA.
func priceOffer(fl *fleet, tr *termRow, adTypes []model.AdType, r *rep, runnerBid float64) candidate {
	cd := candidate{
		Offer: Offer{Campaign: r.id, AdType: int(r.k), Utility: r.util, Efficiency: r.eff},
		row:   fl.hotAt(tr.row),
	}
	bi := &tr.billing
	if bi.Model == model.BillingFixed {
		cd.Cost = adTypes[r.k].Cost
		return cd
	}
	charge := runnerBid
	if bi.ReserveECPM > charge {
		charge = bi.ReserveECPM
	}
	if r.bid < charge {
		charge = r.bid
	}
	cd.ChargeECPM = charge
	cd.Model = bi.Model
	if bi.Model.Deferred() {
		cd.Hold = charge / 1000 / bi.EventRate
	} else {
		cd.Cost = charge / 1000
	}
	return cd
}

// commit charges every winner in ar.cands and appends the offers to dst,
// returning the extended slice. Caller still holds the stripe locks, which
// cover every winner's owning shard.
func (b *Broker) commit(ar *scanArena, dst []Offer, auction bool) []Offer {
	m := b.metrics
	for i := range ar.cands {
		cd := &ar.cands[i]
		before := cd.row.headroom()
		b.charge(cd.row, &cd.Offer, auction)
		dst = append(dst, cd.Offer)
		if m != nil {
			m.offersByType[cd.AdType].Inc()
			// Exhaustion event: this commit — its charge or its hold — pushed
			// the headroom below the cheapest ad type, so the walk files the
			// campaign as exhausted until a top-up or an expired hold refills it.
			if before >= b.minAdCost && cd.row.headroom() < b.minAdCost {
				m.exhaustedEvents.Inc()
			}
		}
	}
	return dst
}

// headroom is the budget neither spent nor held in escrow: the walk's
// exhaustion line (terms computes it from the same three loads).
func (h *hotRow) headroom() float64 { return h.budget.Load() - h.spent.Load() - h.escrow.Load() }

// charge lands one offer's money: the only place an offer moves spent or
// escrow, for live commits and WAL replay alike, so a replayed history
// repeats the live accumulator sequence bit for bit. A deferred offer
// (Hold > 0) registers in the escrow table instead of spending — under a
// fresh offer ID when o.ID is 0, under the recorded one on replay — and may
// expire the oldest open offer to stay within the table bound; an
// immediately charged one is folded into the per-model revenue counters
// when the arrival was auction-resolved. Writers hold the owning shard's
// lock (every candidate came from a locked shard), so load+store is a safe
// read-modify-write.
func (b *Broker) charge(h *hotRow, o *Offer, auction bool) {
	bl := b.billing
	if o.Hold > 0 {
		bl.mu.Lock()
		o.ID = bl.holdLocked(o.Campaign, o.Model, o.Hold, o.ID)
		h.escrow.Store(h.escrow.Load() + o.Hold)
		bl.held.Add(o.Hold)
		if len(bl.open) > bl.maxOpen {
			bl.evictLocked(b.dir.Load())
		}
		bl.mu.Unlock()
	} else if auction {
		bl.revenue[o.Model].Add(o.Cost)
	}
	h.spent.Store(h.spent.Load() + o.Cost)
	b.spent.Add(o.Cost)
	b.utility.Add(o.Utility)
	b.offers.Add(1)
}
