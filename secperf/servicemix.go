package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/attacktree"
	"repro/internal/attacktree/fleetgen"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/transform"
)

// The service-mix workload drives an in-process service.Server on a
// loopback listener, with a result store in a temporary directory, through
// service.Client: a closed loop of two clients over a seeded request
// sequence. About seven requests in ten repeat a hot set primed during
// set-up (cache hits); the rest are new (solved, then written through to
// the store).
//
// The server runs without a job journal, as secserved does unless given
// -journal. With one, every request, hits included, waits for two synced
// journal appends, and on a shared virtual disk those made the median
// latency swing between 0.7 and 1.9 ms from run to run, against 0.44–0.53
// ms without. The traced run times the journal's appends on their own
// (store.journal_append_ms).

const (
	mixClients = 2
	// mixWait keeps every request on the server until its job finishes, so
	// Client.Analyze never falls back to polling.
	mixWait = 30
	// mixTracedChecks is how many distinct answers the traced run
	// recomputes composed from the layers; the rest are checked untraced.
	mixTracedChecks = 48
)

// classCount is how many requests of a class a set holds.
type classCount struct {
	class string
	n     int
}

// Request classes and how many of each make up one round of 100 new
// requests. The sequence is made of whole rounds, each in seeded order, so
// every seed asks for the same mix.
var mixRound = []classCount{
	{"grid", 10},
	{"cell", 36},
	{"heavy", 7},
	{"property", 20},
	{"fleet", 17},
	{"closed", 10},
}

// mixHotClasses is the make-up of the hot set. It leaves out the heavy
// class, so priming costs the same on every seed.
var mixHotClasses = []classCount{
	{"grid", 2},
	{"cell", 9},
	{"property", 5},
	{"fleet", 5},
	{"closed", 3},
}

// mixBlock is how many requests one hot/new block holds; mixBlockHot of
// them repeat the hot set.
const (
	mixBlock    = 10
	mixBlockHot = 7
)

// mixRequest is one distinct request with what its checks need.
type mixRequest struct {
	id    int
	class string
	req   *service.AnalysisRequest
	// closed is the closed-form top-event probability of a closed-class
	// tree (NaN for the other classes).
	closed float64
}

// mixGen makes distinct requests from a seeded generator.
type mixGen struct {
	rng   *rand.Rand
	seen  map[string]bool
	archs []*arch.Architecture
	n     int
}

func newMixGen(seed int64) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool), archs: arch.CaseStudy()}
}

func (g *mixGen) uniform(lo, hi float64) float64 { return lo + g.rng.Float64()*(hi-lo) }

// jitter scales x by a seeded factor within 3 %: enough to make a request
// new, not enough to change what it costs.
func (g *mixGen) jitter(x float64) float64 { return x * g.uniform(0.97, 1.03) }

// variant is a case-study architecture with every ECU's patch rate scaled
// by one seeded factor within 5 %, so its model is new to the service but
// costs what the original costs.
func (g *mixGen) variant(a *arch.Architecture) (json.RawMessage, error) {
	c := a.Clone()
	f := g.uniform(0.95, 1.05)
	for i := range c.ECUs {
		r, err := c.ECUs[i].EffectivePatchRate()
		if err != nil {
			return nil, err
		}
		c.ECUs[i].PatchRate = r * f
	}
	return c.ToJSON()
}

// next returns a new request of the class for the given slot of its round.
func (g *mixGen) next(class string, slot int) (*mixRequest, error) {
	for {
		r, err := g.draw(class, slot)
		if err != nil {
			return nil, err
		}
		key, err := json.Marshal(r.req)
		if err != nil {
			return nil, err
		}
		if g.seen[string(key)] {
			continue
		}
		g.seen[string(key)] = true
		r.id = g.n
		g.n++
		return r, nil
	}
}

// horizonLevels are the horizons, in years, requests cycle through.
var horizonLevels = []float64{0.5, 1, 2}

// draw makes a request of the class. The slot, the request's place in its
// round, fixes what the request costs: architecture, nmax, cell, steady
// state, horizon level and query. The seed only jitters rates and horizons
// and draws the attack trees.
func (g *mixGen) draw(class string, slot int) (*mixRequest, error) {
	r := &mixRequest{class: class, closed: math.NaN(), req: &service.AnalysisRequest{WaitSeconds: mixWait}}
	req := r.req
	s := slot
	var err error
	switch class {
	case "grid":
		// All nine cells of one architecture at nmax 1, on a new model.
		req.NMax = 1
		req.Horizon = g.jitter(horizonLevels[(s/3)%3])
		req.SkipSteadyState = s%2 == 0
		req.Inline, err = g.variant(g.archs[s%3])
	case "cell":
		// One cell at nmax 1 or 2: half on a new model, half re-solving a
		// built-in one at a new horizon.
		a := s % 3
		req.NMax = 1 + (s/3)%2
		req.Category = core.Categories[(s/6)%3].String()
		req.Protection = core.Protections[(s+s/3)%3].String()
		req.SkipSteadyState = (s/18)%2 == 0
		req.Horizon = g.jitter(horizonLevels[(s/2)%3])
		if (s/9)%2 == 0 {
			req.Inline, err = g.variant(g.archs[a])
		} else {
			req.Architecture = fmt.Sprintf("builtin:%d", a+1)
		}
	case "heavy":
		// The costliest class, and one of near-uniform cost: a new
		// 8,192-state model of Architecture 1 at nmax 3, steady state on,
		// about one year. It is 2.1 % of all requests, so the p99 falls
		// inside it.
		req.NMax = 3
		req.Horizon = g.jitter(1)
		req.Category, req.Protection = heavyCells[s%3][0], heavyCells[s%3][1]
		req.Inline, err = g.variant(g.archs[0])
	case "property":
		req.Architecture = fmt.Sprintf("builtin:%d", 1+s%3)
		req.NMax = 2
		req.Category = core.Categories[(s/3)%3].String()
		req.Protection = core.Protections[(s+s/9)%3].String()
		h := g.jitter(horizonLevels[(s/2)%3])
		if s%2 == 0 {
			req.Property = fmt.Sprintf(`P=? [ F<=%.6f "violated" ]`, h)
		} else {
			req.Property = fmt.Sprintf(`R{"%s"}=? [ C<=%.6f ]`, transform.RewardViolated, h)
		}
	case "fleet":
		trees, ferr := fleetgen.Generate(fleetgen.Spec{Seed: g.rng.Int63(), Count: 1})
		if ferr != nil {
			return nil, ferr
		}
		t := trees[0]
		for i, cm := range t.Countermeasures() {
			if (s+i)%2 == 0 {
				req.Countermeasures = append(req.Countermeasures, cm.Name)
			}
		}
		req.Kind = service.KindAttackTree
		req.Horizon = g.jitter(horizonLevels[s%3])
		req.Inline, err = t.CanonicalJSON()
	case "closed":
		t, p := g.closedTree(s)
		req.Kind = service.KindAttackTree
		req.Horizon = p.horizon
		r.closed = p.value()
		req.Inline, err = t.CanonicalJSON()
	default:
		err = fmt.Errorf("unknown request class %q", class)
	}
	return r, err
}

// heavyCells are Architecture 1's cells whose nmax-3 model has 8,192
// states.
var heavyCells = [][2]string{
	{transform.Confidentiality.String(), transform.AES128.String()},
	{transform.Integrity.String(), transform.CMAC128.String()},
	{transform.Integrity.String(), transform.AES128.String()},
}

// closedForm is a one-gate tree over exponential leaves whose top-event
// probability has a closed form.
type closedForm struct {
	gate    string
	rates   []float64
	horizon float64
}

func (g *mixGen) closedTree(slot int) (*attacktree.Tree, closedForm) {
	gates := []string{attacktree.GateOR, attacktree.GateAND, attacktree.GateSAND}
	p := closedForm{gate: gates[slot%3], horizon: g.jitter(horizonLevels[(slot/3)%3])}
	// Rates at least 30 % apart keep the hypoexponential terms well
	// conditioned.
	rate := g.uniform(0.3, 1)
	root := &attacktree.Node{Name: "top", Gate: p.gate}
	for i, n := 0, 2+(slot/9+slot)%3; i < n; i++ {
		r := rate
		p.rates = append(p.rates, r)
		root.Children = append(root.Children, &attacktree.Node{Name: fmt.Sprintf("step%d", i), Rate: &r})
		rate *= g.uniform(1.3, 2)
	}
	return &attacktree.Tree{Name: fmt.Sprintf("closed_%s_%d", p.gate, len(p.rates)), Root: root}, p
}

// value is P[top event within the horizon]: 1 − e^{−Σλt} for OR,
// ∏(1 − e^{−λt}) for AND and the hypoexponential CDF for SAND.
func (p closedForm) value() float64 {
	t := p.horizon
	switch p.gate {
	case attacktree.GateOR:
		var sum float64
		for _, l := range p.rates {
			sum += l
		}
		return -math.Expm1(-sum * t)
	case attacktree.GateAND:
		prod := 1.0
		for _, l := range p.rates {
			prod *= -math.Expm1(-l * t)
		}
		return prod
	default:
		var tail float64
		for i, li := range p.rates {
			coef := 1.0
			for j, lj := range p.rates {
				if j != i {
					coef *= lj / (lj - li)
				}
			}
			tail += coef * math.Exp(-li*t)
		}
		return 1 - tail
	}
}

// mixSeq hands out the seeded request sequence to the clients: blocks of
// mixBlock requests, mixBlockHot of them hot, in seeded order. Hot requests
// come in seeded rounds through the whole hot set, new ones in seeded
// rounds of mixRound.
type mixSeq struct {
	mu      sync.Mutex
	rng     *rand.Rand
	gen     *mixGen
	hot     []*mixRequest
	block   []bool
	hotNext []*mixRequest
	slots   []classSlot
}

// classSlot is one new request of a round: its class and its place among
// the round's requests of that class.
type classSlot struct {
	class string
	slot  int
}

// roundSlots lists a round's requests in class order.
func roundSlots(round []classCount) []classSlot {
	var out []classSlot
	for _, c := range round {
		for i := 0; i < c.n; i++ {
			out = append(out, classSlot{c.class, i})
		}
	}
	return out
}

// shuffled returns a seeded permutation of the n-fold repetitions.
func shuffled[T any](rng *rand.Rand, items []T, counts func(T) int) []T {
	var out []T
	for _, it := range items {
		for i := 0; i < counts(it); i++ {
			out = append(out, it)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (s *mixSeq) next() (*mixRequest, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.block) == 0 {
		s.block = shuffled(s.rng, []bool{true, false}, func(hot bool) int {
			if hot {
				return mixBlockHot
			}
			return mixBlock - mixBlockHot
		})
	}
	hot := s.block[0]
	s.block = s.block[1:]
	if hot {
		if len(s.hotNext) == 0 {
			s.hotNext = shuffled(s.rng, s.hot, func(*mixRequest) int { return 1 })
		}
		r := s.hotNext[0]
		s.hotNext = s.hotNext[1:]
		return r, true, nil
	}
	if len(s.slots) == 0 {
		s.slots = shuffled(s.rng, roundSlots(mixRound), func(classSlot) int { return 1 })
	}
	c := s.slots[0]
	s.slots = s.slots[1:]
	r, err := s.gen.next(c.class, c.slot)
	return r, false, err
}

// mixRecord is one answered request.
type mixRecord struct {
	r       *mixRequest
	hot     bool
	lat     time.Duration
	view    *service.JobView
	payload []byte
	err     error
}

// mixServer is the in-process service with its store and temporary
// directory.
type mixServer struct {
	dir    string
	srv    *service.Server
	l      net.Listener
	served chan error
	http   *http.Client
	base   string
	// primed holds the hot set's priming answers.
	primed []mixRecord
	closed bool
}

func startMixServer() (*mixServer, error) {
	dir, err := os.MkdirTemp("", "secperf-service-")
	if err != nil {
		return nil, err
	}
	m := &mixServer{dir: dir}
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		m.close()
		return nil, err
	}
	if m.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		m.close()
		return nil, err
	}
	m.srv = service.New(service.Config{Store: st})
	m.served = make(chan error, 1)
	go func() { m.served <- m.srv.Serve(m.l) }()
	m.base = "http://" + m.l.Addr().String()
	m.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients}}
	return m, nil
}

// close stops the server, waits for it, and removes the directory. Only
// the first call does anything.
func (m *mixServer) close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	var errs []error
	if m.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, m.srv.Shutdown(ctx))
		cancel()
		// Shutdown closes the listener only once Serve has registered its
		// HTTP server; closing it here also ends a Serve that had not got
		// that far.
		if err := m.l.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		if err := <-m.served; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		m.http.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(m.dir))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *mixServer) client() *service.Client {
	c := service.NewClient(m.base)
	c.HTTP = m.http
	return c
}

// ask sends one request and records the answer.
func ask(ctx context.Context, c *service.Client, r *mixRequest, hot bool) mixRecord {
	start := time.Now()
	v, err := c.Analyze(ctx, r.req)
	rec := mixRecord{r: r, hot: hot, lat: time.Since(start), view: v, err: err}
	if err == nil {
		rec.payload, rec.err = json.Marshal(service.Outcome{Results: v.Results, Property: v.Property, Tree: v.Tree})
	}
	return rec
}

func runServiceMix(ctx context.Context, o options, log io.Writer) (*report, error) {
	// The hot set is fixed by the seed; priming it is part of set-up.
	gen := newMixGen(o.seed)
	var hot []*mixRequest
	for _, c := range roundSlots(mixHotClasses) {
		r, err := gen.next(c.class, c.slot)
		if err != nil {
			return nil, err
		}
		hot = append(hot, r)
	}
	m, setup, err := medianSetup(o.setups, func() (*mixServer, time.Duration, error) {
		start := time.Now()
		m, err := startMixServer()
		if err != nil {
			return nil, 0, err
		}
		c := m.client()
		for _, r := range hot {
			rec := ask(ctx, c, r, false)
			if rec.err != nil {
				m.close()
				return nil, 0, fmt.Errorf("priming %s request %d: %w", r.class, r.id, rec.err)
			}
			m.primed = append(m.primed, rec)
		}
		return m, time.Since(start), nil
	}, (*mixServer).close)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := m.close(); err != nil {
			logf(log, "service-mix: stopping the server: %v", err)
		}
	}()

	before, err := m.client().Metrics(ctx)
	if err != nil {
		return nil, err
	}
	// New requests continue the generator that made the hot set, so they
	// never repeat a hot one.
	seq := &mixSeq{rng: rand.New(rand.NewSource(o.seed + 1)), gen: gen, hot: hot}
	var (
		mu      sync.Mutex
		records []mixRecord
		wg      sync.WaitGroup
		genErr  error
	)
	ph := startPhase()
	deadline := ph.start.Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < mixClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := m.client()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r, isHot, err := seq.next()
				if err != nil {
					mu.Lock()
					genErr = err
					mu.Unlock()
					return
				}
				rec := ask(ctx, c, r, isHot)
				if rec.err == nil {
					ph.add(rec.lat)
				}
				mu.Lock()
				records = append(records, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.stop()
	if genErr != nil {
		return nil, genErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := m.client().Metrics(ctx)
	if err != nil {
		return nil, err
	}

	rep := &report{}
	var lat, hitLat, missLat, overhead, queueWait []time.Duration
	misses := 0
	for _, rec := range records {
		rep.Attempted++
		if rec.err != nil {
			rep.Failed++
			logf(log, "service-mix: %s request %d failed: %v", rec.r.class, rec.r.id, rec.err)
			continue
		}
		lat = append(lat, rec.lat)
		v := rec.view
		if v.Started != nil && v.Finished != nil {
			overhead = append(overhead, rec.lat-v.Finished.Sub(v.Created))
		}
		if rec.hot {
			hitLat = append(hitLat, rec.lat)
		} else {
			misses++
			missLat = append(missLat, rec.lat)
			if v.Started != nil {
				queueWait = append(queueWait, v.Started.Sub(v.Created))
			}
		}
	}
	logf(log, "service-mix: %d requests (%d new) in %.2f s", len(records), misses, ph.wall.Seconds())
	logClasses(log, records)
	if ok, err := endToEnd(rep, setup, ph); !ok || err != nil {
		return rep, err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := percentile(lat, 99)
	logf(log, "service-mix: %d requests beyond the p99", len(lat)-sort.Search(len(lat), func(i int) bool { return lat[i] > p99 }))

	if o.perturb == "service" && len(records) > 0 {
		for i := range records {
			if v := records[i].view; records[i].err == nil && !records[i].hot && len(v.Results) > 0 {
				v.Results[0].ExploitableTime *= 1 + 1e-6
				break
			}
		}
	}
	// The server's work is done; stop it before the checks so they do not
	// compete with it.
	if err := m.close(); err != nil {
		return nil, err
	}

	var t *tracer
	if o.trace {
		t = newTracer()
	}
	if err := checkServiceMix(ctx, rep, t, records, m.primed); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}
	if err := timeJournal(t, records); err != nil {
		return nil, err
	}
	traced := &report{}
	runtimeLayer(traced, ph)
	layerMetrics(traced, t)
	t.summarize(log)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var puts, storeBytes float64
	if after.Engine.Store != nil && before.Engine.Store != nil {
		puts = float64(after.Engine.Store.Puts - before.Engine.Store.Puts)
		storeBytes = float64(after.Engine.Store.Bytes)
	}
	traced.set("service.hit_p50_ms", ms(median(hitLat)), "ms")
	traced.set("service.miss_p50_ms", ms(median(missLat)), "ms")
	traced.set("service.http_overhead_p50_ms", ms(median(overhead)), "ms")
	traced.set("service.queue_wait_p50_ms", ms(median(queueWait)), "ms")
	traced.set("service.hit_ratio", ratio(float64(after.Engine.Hits-before.Engine.Hits), float64(len(lat))), "ratio")
	traced.set("service.solves_per_miss", ratio(float64(after.Engine.Solves-before.Engine.Solves), float64(misses)), "ratio")
	traced.set("store.puts_per_miss", ratio(puts, float64(misses)), "ratio")
	traced.set("store.bytes", storeBytes, "bytes")
	rep.Metrics = traced.Metrics
	return rep, nil
}

// timeJournal writes the job journal's records for the first
// mixTracedChecks answered requests through store.Journal, in a temporary
// directory of its own, one span per request: the submission with its
// body and the completion, each synced, as a server with a journal writes
// them for every request.
func timeJournal(t *tracer, records []mixRecord) error {
	dir, err := os.MkdirTemp("", "secperf-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	for i, rec := range records[:min(mixTracedChecks, len(records))] {
		body, err := json.Marshal(rec.r.req)
		if err != nil {
			j.Close()
			return err
		}
		id := fmt.Sprintf("j%06d", i)
		if _, err := t.do("store.journal", func() error {
			if err := j.Submit(id, body); err != nil {
				return err
			}
			return j.Done(id)
		}); err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

// logClasses writes each request class's count and latency quantiles.
func logClasses(log io.Writer, records []mixRecord) {
	by := make(map[string][]time.Duration)
	for _, rec := range records {
		if rec.err == nil {
			k := rec.r.class
			if rec.hot {
				k = "hot " + k
			}
			by[k] = append(by[k], rec.lat)
		}
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		logf(log, "service-mix: %-14s n %5d  p25 %8.2f  p50 %8.2f  p75 %8.2f  p90 %8.2f  max %8.2f ms", k, len(by[k]),
			ms(percentile(by[k], 25)), ms(median(by[k])), ms(percentile(by[k], 75)), ms(percentile(by[k], 90)), ms(percentile(by[k], 100)))
	}
}
