package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/foxglynn"
	"repro/internal/linalg"
	"repro/internal/modular"
	"repro/internal/transform"
)

// cell is one architecture analysis: an architecture, a message, the
// analyzer settings and one category × protection combination.
type cell struct {
	arch *arch.Architecture
	msg  string
	an   core.Analyzer
	cat  transform.Category
	prot transform.Protection
}

// composedModel is an explored model built from the layers' entry points.
type composedModel struct {
	ex   *modular.Explored
	mask []bool
	init linalg.Vector
}

// composeModel builds c's model through transform.Build,
// Model.ExploreContext and Explored.LabelMask, each in a span of its own.
func composeModel(ctx context.Context, t *tracer, c cell) (*composedModel, error) {
	var res *transform.Result
	if _, err := t.do("transform.build", func() (err error) {
		res, err = transform.Build(c.arch, c.msg, c.an.TransformOptions(c.cat, c.prot))
		return err
	}); err != nil {
		return nil, err
	}
	ex, err := explore(ctx, t, res.Model)
	if err != nil {
		return nil, err
	}
	var mask []bool
	if _, err := t.do("modular.label_mask", func() (err error) {
		mask, err = ex.LabelMask(transform.LabelViolated)
		return err
	}); err != nil {
		return nil, err
	}
	return &composedModel{ex: ex, mask: mask, init: ex.InitDistribution()}, nil
}

// composeSolve answers c's question on a composed model through
// Chain.ExpectedTimeFractionContext and, unless c skips it,
// Chain.SteadyStateContext. It returns the time fraction and the
// steady-state probability (NaN when skipped).
func composeSolve(ctx context.Context, t *tracer, m *composedModel, an core.Analyzer) (frac, steady float64, err error) {
	chain := m.ex.Chain
	i, err := t.do("ctmc.reward", func() (err error) {
		frac, err = chain.ExpectedTimeFractionContext(ctx, m.init, m.mask, an.Horizon, an.Accuracy)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	work, err := rewardWork(chain, an.Horizon, an.Accuracy)
	if err != nil {
		return 0, 0, err
	}
	t.setWork(i, work)
	steady = math.NaN()
	if an.SkipSteadyState {
		return frac, steady, nil
	}
	_, err = t.do("ctmc.steady", func() error {
		pi, err := chain.SteadyStateContext(ctx, m.init)
		if err != nil {
			return err
		}
		steady = maskedSum(pi, m.mask)
		return nil
	})
	return frac, steady, err
}

// maskedSum is the long-run probability of the masked states, summed in
// state order.
func maskedSum(pi linalg.Vector, mask []bool) float64 {
	var p float64
	for i, in := range mask {
		if in {
			p += pi[i]
		}
	}
	return p
}

// rewardWork is the number of matrix entries one cumulative-reward solve
// streams: the Fox–Glynn right truncation point for q·t (q = 1.02 × the
// largest exit rate, the uniformisation rate) times the entries of
// P = I + Q/q, that is the rate matrix's nonzeros plus its diagonal.
func rewardWork(c *ctmc.Chain, horizon, accuracy float64) (float64, error) {
	if accuracy <= 0 {
		accuracy = ctmc.DefaultAccuracy
	}
	q := 1.02 * c.MaxExitRate()
	if q == 0 {
		q = 1
	}
	fg, err := foxglynn.Compute(q*horizon, accuracy)
	if err != nil {
		return 0, err
	}
	return float64(fg.Right) * float64(c.Rates.NNZ()+c.N()), nil
}

// explore explores m in a modular.explore span.
func explore(ctx context.Context, t *tracer, m *modular.Model) (*modular.Explored, error) {
	var ex *modular.Explored
	i, err := t.do("modular.explore", func() (err error) {
		ex, err = m.ExploreContext(ctx, modular.ExploreOpts{})
		return err
	})
	if err != nil {
		return nil, err
	}
	t.setWork(i, float64(ex.N()))
	return ex, nil
}

// corePrepare and coreSolve run core's own orchestration in spans.
func corePrepare(ctx context.Context, t *tracer, c cell) (*core.Prepared, error) {
	var p *core.Prepared
	_, err := t.do("core.prepare", func() (err error) {
		p, err = c.an.PrepareContext(ctx, c.arch, c.msg, c.cat, c.prot)
		return err
	})
	return p, err
}

func coreSolve(ctx context.Context, t *tracer, an core.Analyzer, p *core.Prepared) (*core.Result, error) {
	var r *core.Result
	_, err := t.do("core.solve", func() (err error) {
		r, err = an.AnalyzePreparedContext(ctx, p)
		return err
	})
	return r, err
}

// sameBits reports whether a and b are the same float64, NaN included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// matchCore compares a composed answer with core's, bit for bit.
func matchCore(r *core.Result, m *composedModel, frac, steady float64) error {
	if !sameBits(r.TimeFraction, frac) || !sameBits(r.SteadyState, steady) {
		return fmt.Errorf("composed pipeline gives (%v, %v), core gives (%v, %v)", frac, steady, r.TimeFraction, r.SteadyState)
	}
	if r.States != m.ex.N() || r.Transitions != m.ex.Chain.Rates.NNZ() {
		return fmt.Errorf("composed model has %d states/%d transitions, core's %d/%d",
			m.ex.N(), m.ex.Chain.Rates.NNZ(), r.States, r.Transitions)
	}
	return nil
}

// tracedCell analyses c twice under t, through core and composed from the
// layers, and returns core's result once the two agree bit for bit. A
// disagreement is returned as mismatch, not as an error.
func tracedCell(ctx context.Context, t *tracer, c cell) (r *core.Result, mismatch, err error) {
	p, err := corePrepare(ctx, t, c)
	if err != nil {
		return nil, nil, err
	}
	if r, err = coreSolve(ctx, t, c.an, p); err != nil {
		return nil, nil, err
	}
	m, err := composeModel(ctx, t, c)
	if err != nil {
		return nil, nil, err
	}
	frac, steady, err := composeSolve(ctx, t, m, c.an)
	if err != nil {
		return nil, nil, err
	}
	return r, matchCore(r, m, frac, steady), nil
}
