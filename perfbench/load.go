package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/tensor"
)

// minCompleted is the fewest completed requests a percentile may rest on:
// at least 10 samples then lie beyond p95. A measured phase that reaches
// its time with fewer keeps going until it has them.
const minCompleted = 200

// requestTimeout bounds one request, so a stalled system shows up as
// failures instead of a hung run.
const requestTimeout = 10 * time.Second

// outcome is one sent request.
type outcome struct {
	phase int
	lat   time.Duration // closed loop: from the call; open loop: from the due time
	err   bool          // returned an error: failed or shed
	wrong bool          // returned an output that failed the check
}

// phase is a slice of the measured window with an optional action run as
// it begins (the fleet's fault script).
type phase struct {
	name   string
	at     float64 // start, as a fraction of the window
	action func()
}

// phaser walks the phases as the window advances, running each phase's
// action on its own goroutine; wg waits for the actions.
type phaser struct {
	phases []phase
	window time.Duration
	cur    int
	wg     sync.WaitGroup
}

func newPhaser(phases []phase, window time.Duration) *phaser {
	if len(phases) == 0 {
		phases = []phase{{name: "all"}}
	}
	return &phaser{phases: phases, window: window}
}

// at returns the phase that offset t into the window falls in.
func (ph *phaser) at(t time.Duration) int {
	for ph.cur+1 < len(ph.phases) && t >= time.Duration(ph.phases[ph.cur+1].at*float64(ph.window)) {
		ph.cur++
		if a := ph.phases[ph.cur].action; a != nil {
			ph.wg.Add(1)
			go func() {
				defer ph.wg.Done()
				a()
			}()
		}
	}
	return ph.cur
}

// load is one measured phase: where requests go, how they are checked,
// and how long it lasts.
type load struct {
	srv    server
	chk    *checker
	ins    []*tensor.Tensor
	dur    time.Duration
	min    int // fewest requests that must complete
	phases []phase
	parent *obs.Span // parent of the per-request spans
}

// loadResult is everything one measured phase produced.
type loadResult struct {
	phases   []phase
	outcomes []outcome       // closed loop: in completion order; open loop: in send order
	lags     []time.Duration // open loop: how late each send left
	elapsed  time.Duration
}

// send runs request i in phase p, timed from from, and classifies it.
func (l *load) send(ctx context.Context, ph *phaser, i, p int, from time.Time) outcome {
	sp := l.parent.Child("request", obs.KV("phase", ph.phases[p].name), obs.KVInt("input", i))
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	out, err := l.srv.Run(rctx, l.ins[i])
	cancel()
	o := outcome{phase: p, lat: time.Since(from)}
	sp.End()
	switch {
	case err != nil:
		o.err = true
	case l.chk.check(i, out) != nil:
		o.wrong = true
	}
	return o
}

// closedLoop runs clients callers back to back for l.dur, cycling through
// the inputs; phases split the window by time. It runs on past l.dur, up
// to 3*l.dur, until l.min requests have completed.
func closedLoop(ctx context.Context, l *load, clients int) *loadResult {
	ph := newPhaser(l.phases, l.dur)
	res := &loadResult{phases: ph.phases}
	var (
		mu   sync.Mutex
		next int
		done int
		wg   sync.WaitGroup
	)
	start := time.Now()
	take := func() (i, p int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		t := time.Since(start)
		if ctx.Err() != nil || (t >= l.dur && done >= l.min) || t >= 3*l.dur {
			return 0, 0, false
		}
		i = next % len(l.ins)
		next++
		return i, ph.at(t), true
	}
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i, p, ok := take()
				if !ok {
					return
				}
				o := l.send(ctx, ph, i, p, time.Now())
				mu.Lock()
				res.outcomes = append(res.outcomes, o)
				if !o.err {
					done++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// schedule draws the due times (offsets from the start) and input indices
// from the seed: a Poisson process at rate per second, conditioned on
// sending exactly rate*dur requests (at least atLeast, the window
// stretching to keep the rate), so the offered load is the same for every
// seed. Given the count, Poisson arrival times are uniform order
// statistics over the window.
func schedule(seed int64, rate float64, dur time.Duration, atLeast, nIns int) (dues []time.Duration, idx []int, window time.Duration) {
	n := int(math.Round(rate * dur.Seconds()))
	if n < atLeast {
		n = atLeast
	}
	window = time.Duration(float64(n) / rate * float64(time.Second))
	rng := rand.New(rand.NewSource(seed))
	dues = make([]time.Duration, n)
	idx = make([]int, n)
	for k := range dues {
		dues[k] = time.Duration(rng.Float64() * float64(window))
		idx[k] = rng.Intn(nIns)
	}
	sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
	return dues, idx, window
}

// openLoop sends on a seeded Poisson schedule regardless of replies. One
// goroutine walks the schedule; each request runs on its own goroutine and
// is timed from its due time, so a stall also counts against the requests
// queued behind it. Phases split the schedule by due time.
func openLoop(ctx context.Context, l *load, seed int64, rate float64) *loadResult {
	dues, idx, window := schedule(seed, rate, l.dur, l.min, len(l.ins))
	ph := newPhaser(l.phases, window)
	res := &loadResult{phases: ph.phases, lags: make([]time.Duration, 0, len(dues))}
	outs := make([]outcome, len(dues))
	sent := 0

	var wg sync.WaitGroup
	start := time.Now()
	for k, due := range dues {
		p := ph.at(due)
		dueAt := start.Add(due)
		if d := time.Until(dueAt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		res.lags = append(res.lags, time.Since(dueAt))
		sent++
		wg.Add(1)
		go func(k, i, p int, dueAt time.Time) {
			defer wg.Done()
			outs[k] = l.send(ctx, ph, i, p, dueAt)
		}(k, idx[k], p, dueAt)
	}
	wg.Wait()
	ph.wg.Wait()
	res.outcomes = outs[:sent]
	res.elapsed = time.Since(start)
	return res
}

// summary is the end-to-end view of a loadResult.
type summary struct {
	sent, succeeded, failed, wrong int
	p50, p95                       float64 // ms over completed requests
	throughput                     float64 // correct completions per second
	goodput                        float64 // share of sent that were correct within the limit
	completed                      int
}

// summarize condenses a measured phase, or with onlyPhase >= 0 one of its
// phases. With segments > 1, p50 and p95 are medians over that many
// consecutive slices of the requests, each slice's own percentile: a
// burst of interference from outside the process spoils one slice, not
// the figure.
func summarize(r *loadResult, limitMs float64, onlyPhase, segments int) summary {
	var s summary
	var lats []float64
	good := 0
	for _, o := range r.outcomes {
		if onlyPhase >= 0 && o.phase != onlyPhase {
			continue
		}
		s.sent++
		switch {
		case o.err:
			s.failed++
			continue
		case o.wrong:
			s.wrong++
		default:
			s.succeeded++
			if ms(o.lat) <= limitMs {
				good++
			}
		}
		lats = append(lats, ms(o.lat))
	}
	s.completed = len(lats)
	s.p50, s.p95 = quantile(lats, 0.5), quantile(lats, 0.95)
	if segments > 1 && onlyPhase < 0 {
		var p50s, p95s []float64
		n := len(r.outcomes)
		for k := 0; k < segments; k++ {
			seg := summarize(&loadResult{outcomes: r.outcomes[k*n/segments : (k+1)*n/segments]}, limitMs, -1, 1)
			p50s, p95s = append(p50s, seg.p50), append(p95s, seg.p95)
		}
		s.p50, s.p95 = median(p50s), median(p95s)
	}
	if r.elapsed > 0 {
		s.throughput = float64(s.succeeded) / r.elapsed.Seconds()
	}
	if s.sent > 0 {
		s.goodput = float64(good) / float64(s.sent)
	}
	return s
}

// quantile interpolates linearly between order statistics; NaN when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
