package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transform"
)

// The synthetic-scale workload is Section 4.3's scalability question on one
// large chain: arch.Synthetic with 9 ECUs on 2 buses, nmax 2, availability
// (177,147 states, 2.6 M transitions). Set-up transforms and explores it;
// the timed phase re-solves the prepared chain, steady state on, over whole
// cycles of horizons. The seed only shuffles the horizons within a cycle.

// synthHorizons are the distinct horizons in years. synthCycle is the timed
// phase's cycle over them: a quarter year, then the paper's one year four
// times, so the median and the slowest latency are order statistics of four
// one-year solves spread over the cycle rather than single solves. A single
// solve of about 7 s sees whatever the machine does in those seconds; on a
// shared 2-vCPU guest that moved a run's figure by up to a quarter.
var (
	synthHorizons = []float64{0.25, 1}
	synthCycle    = []float64{0.25, 1, 1, 1, 1}
)

const (
	synthNMax = 2
	// synthMCPaths and synthMCSeed fix the Monte-Carlo cross-check. The
	// seed is fixed rather than taken from --seed, so a 4-sigma excursion
	// cannot fail the check on some seeds and pass it on others.
	synthMCPaths = 40000
	synthMCSeed  = 20150607
)

type synthModel struct {
	arch *arch.Architecture
	p    *core.Prepared
}

func synthCell(a *arch.Architecture, horizon float64) cell {
	return cell{
		arch: a, msg: arch.MessageM,
		an:  core.Analyzer{NMax: synthNMax, Horizon: horizon},
		cat: transform.Availability, prot: transform.Unencrypted,
	}
}

// synthAnswer is one analysis's output.
type synthAnswer struct{ frac, steady float64 }

func runSyntheticScale(ctx context.Context, o options, log io.Writer) (*report, error) {
	spec := arch.SyntheticSpec{ECUs: o.synthECUs, Buses: 2}
	m, setup, err := medianSetup(o.setups, func() (*synthModel, time.Duration, error) {
		start := time.Now()
		a, err := arch.Synthetic(spec)
		if err != nil {
			return nil, 0, err
		}
		c := synthCell(a, 1)
		p, err := c.an.PrepareContext(ctx, a, c.msg, c.cat, c.prot)
		if err != nil {
			return nil, 0, err
		}
		return &synthModel{arch: a, p: p}, time.Since(start), nil
	}, nil)
	if err != nil {
		return nil, err
	}
	logf(log, "synthetic-scale: %d states, %d transitions, set-up %.2f s", m.p.States(), m.p.Transitions(), setup.Seconds())

	rng := rand.New(rand.NewSource(o.seed))
	cycle := func() []float64 {
		hs := append([]float64(nil), synthCycle...)
		rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
		return hs
	}
	rep := &report{}
	answers := make(map[float64]synthAnswer)
	ph := startPhase()
	for rep.Attempted == 0 || ph.elapsed().Seconds() < o.seconds {
		for _, h := range cycle() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rep.Attempted++
			an := synthCell(m.arch, h).an
			start := time.Now()
			r, err := an.AnalyzePreparedContext(ctx, m.p)
			if err != nil {
				logf(log, "synthetic-scale: horizon %v failed: %v", h, err)
				rep.Failed++
				continue
			}
			ph.add(time.Since(start))
			got := synthAnswer{r.TimeFraction, r.SteadyState}
			if prev, ok := answers[h]; ok && prev != got {
				rep.checkf("synthetic-scale: horizon %v answered %v, earlier %v", h, got, prev)
			}
			answers[h] = got
		}
	}
	ph.stop()
	analyses := len(ph.latencies())
	logf(log, "synthetic-scale: %d analyses in %.2f s", analyses, ph.wall.Seconds())
	if ok, err := endToEnd(rep, setup, ph); !ok || err != nil {
		return rep, err
	}
	if err := checkSynthetic(ctx, rep, m, answers, log); err != nil {
		return nil, err
	}
	if err := checkPaperPass(ctx, o, rep, log); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}

	traced := &report{}
	runtimeLayer(traced, ph)
	// m is not used past here, so the traced run's models do not coexist
	// with the prepared chain.
	a := m.arch
	t := newTracer()
	tph := startPhase()
	if err := tracedSynthetic(ctx, t, rep, a, answers); err != nil {
		return nil, err
	}
	tph.stop()
	logf(log, "synthetic-scale: traced run (composed and core, %d horizons each) took %.2f s; untraced, one analysis took %.2f s on average",
		len(synthHorizons), tph.wall.Seconds(), ph.wall.Seconds()/float64(analyses))
	layerMetrics(traced, t)
	t.summarize(log)
	rep.Metrics = traced.Metrics
	return rep, nil
}

// tracedSynthetic builds the model composed from the layers and solves one
// cycle on it, then does the same through core's Prepare/AnalyzePrepared,
// and checks both against the untraced answers bit for bit. The composed
// model is released before core's is built, so the traced run's peak
// memory matches the untraced one's.
func tracedSynthetic(ctx context.Context, t *tracer, rep *report, a *arch.Architecture, answers map[float64]synthAnswer) error {
	cm, err := composeModel(ctx, t, synthCell(a, 1))
	if err != nil {
		return err
	}
	for _, h := range synthHorizons {
		frac, steady, err := composeSolve(ctx, t, cm, synthCell(a, h).an)
		if err != nil {
			return err
		}
		if want := answers[h]; !sameBits(frac, want.frac) || !sameBits(steady, want.steady) {
			rep.checkf("synthetic-scale: composed pipeline at horizon %v gives (%v, %v), core (%v, %v)", h, frac, steady, want.frac, want.steady)
		}
	}
	p, err := corePrepare(ctx, t, synthCell(a, 1))
	if err != nil {
		return err
	}
	for _, h := range synthHorizons {
		r, err := coreSolve(ctx, t, synthCell(a, h).an, p)
		if err != nil {
			return err
		}
		if want := answers[h]; !sameBits(r.TimeFraction, want.frac) || !sameBits(r.SteadyState, want.steady) {
			rep.checkf("synthetic-scale: traced core run at horizon %v gives (%v, %v), untraced (%v, %v)", h, r.TimeFraction, r.SteadyState, want.frac, want.steady)
		}
	}
	return nil
}

// checkSynthetic runs the synthetic-scale output checks.
func checkSynthetic(ctx context.Context, rep *report, m *synthModel, answers map[float64]synthAnswer, log io.Writer) error {
	// Every exploit count 0..nmax of every interface is reachable, and
	// availability adds no protection variable.
	ifaces := 0
	for _, e := range m.arch.ECUs {
		ifaces += len(e.Interfaces)
	}
	if want := int(math.Pow(synthNMax+1, float64(ifaces))); m.p.States() != want {
		rep.checkf("synthetic-scale: %d states, want (nmax+1)^interfaces = %d", m.p.States(), want)
	}

	ex := m.p.Explored
	chain := ex.Chain
	mask, err := ex.LabelMask(transform.LabelViolated)
	if err != nil {
		return err
	}
	pi, err := chain.SteadyStateContext(ctx, ex.InitDistribution())
	if err != nil {
		return err
	}
	var sum, scale float64
	for i, v := range pi {
		if v < 0 {
			rep.checkf("synthetic-scale: steady-state probability of state %d is negative: %v", i, v)
			break
		}
		sum += v
		scale = math.Max(scale, v*chain.Exit[i])
	}
	if math.Abs(sum-1) > 1e-9 {
		rep.checkf("synthetic-scale: steady-state vector sums to %v", sum)
	}
	// ‖πQ‖∞ from the rates: (πQ)_j = Σ_i π_i R_ij − π_j exit_j, relative to
	// the largest probability flow out of a state.
	flow := make([]float64, len(pi))
	for i := range pi {
		cols, vals := chain.Rates.Row(i)
		for k, j := range cols {
			flow[j] += pi[i] * vals[k]
		}
	}
	var resid float64
	for j := range pi {
		resid = math.Max(resid, math.Abs(flow[j]-pi[j]*chain.Exit[j]))
	}
	logf(log, "synthetic-scale: ‖πQ‖∞ = %.3g, %.3g of max π_i·exit_i", resid, resid/scale)
	if resid > synthResidualTol*scale {
		rep.checkf("synthetic-scale: ‖πQ‖∞ = %v exceeds %v × max π_i·exit_i = %v", resid, synthResidualTol, synthResidualTol*scale)
	}
	steady := maskedSum(pi, mask)
	for h, a := range answers {
		if !sameBits(a.steady, steady) {
			rep.checkf("synthetic-scale: steady-state probability %v at horizon %v, the vector gives %v", a.steady, h, steady)
		}
	}

	// The one-year reward against an independent Monte-Carlo estimate.
	if a, ok := answers[1]; ok {
		mean, se, err := sim.New(chain, synthMCSeed).TimeFraction(ex.InitIndex(), mask, 1, synthMCPaths)
		if err != nil {
			return err
		}
		logf(log, "synthetic-scale: one-year time fraction %v, Monte-Carlo %v, %.2f standard errors apart", a.frac, mean, math.Abs(a.frac-mean)/se)
		if !(se > 0) || math.Abs(a.frac-mean) > 4*se {
			rep.checkf("synthetic-scale: one-year time fraction %v, Monte-Carlo %v ± %v (4σ)", a.frac, mean, 4*se)
		}
	}
	// Cumulative reward (fraction × horizon) never decreases with horizon.
	hs := make([]float64, 0, len(answers))
	for h := range answers {
		hs = append(hs, h)
	}
	sort.Float64s(hs)
	for i := 1; i < len(hs); i++ {
		prev, cur := answers[hs[i-1]].frac*hs[i-1], answers[hs[i]].frac*hs[i]
		if cur < prev {
			rep.checkf("synthetic-scale: cumulative reward %v at %v years is below %v at %v years", cur, hs[i], prev, hs[i-1])
		}
	}
	if len(answers) != len(synthHorizons) {
		rep.checkf("synthetic-scale: answers for %d of %d horizons", len(answers), len(synthHorizons))
	}
	return nil
}

// synthResidualTol bounds the steady-state residual relative to the
// largest probability flow; the solver's own tolerance is far tighter.
const synthResidualTol = 1e-6
