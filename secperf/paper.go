package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/csl"
	"repro/internal/modular"
	"repro/internal/prismlang"
	"repro/internal/transform"
)

// The paper-figures workload runs the paper's evaluation from the library,
// one pass after another, each with fresh analyzers: the 27 Figure-5 cells,
// both 13-point Figure-6 sweeps and Eq. 15 through the PRISM front end.
// Set-up passes run in the paper's order, like a one-shot experiments run;
// the seed only shuffles the order of the 54 analyses within each timed
// pass.

const (
	fig6Points = 13
	eq15Query  = `S=? [ "exploited" ]`
)

type paperInputs struct {
	archs []*arch.Architecture // Figure 4's three architectures
	rates []float64            // Figure 6's rate grid, 0.1 … 8760 per year
	fig3  string               // models/paper_fig3.pm
}

type itemKind int

const (
	fig5Item itemKind = iota
	patchItem
	exploitItem
	eq15Item
)

// paperItem is one analysis of a pass: a Figure-5 cell (arch, cat, prot
// index), a Figure-6 point (rate index k) or Eq. 15.
type paperItem struct {
	kind       itemKind
	a, c, p, k int
}

// paperValues are the outputs of one pass.
type paperValues struct {
	fig5           [3][3][3]float64 // [architecture][category][protection]
	patch, exploit [fig6Points]float64
	eq15           float64 // S=? [ "exploited" ], the paper's P[s2]
}

func paperItems() []paperItem {
	var items []paperItem
	for a := 0; a < 3; a++ {
		for c := range core.Categories {
			for p := range core.Protections {
				items = append(items, paperItem{kind: fig5Item, a: a, c: c, p: p})
			}
		}
	}
	for k := 0; k < fig6Points; k++ {
		items = append(items, paperItem{kind: patchItem, k: k}, paperItem{kind: exploitItem, k: k})
	}
	return append(items, paperItem{kind: eq15Item})
}

// Analyzer settings of the paper's evaluation: Figure 5 reports the
// one-year exploitable time without the steady state; the sweeps skip it
// themselves.
func fig5Analyzer() core.Analyzer {
	return core.Analyzer{NMax: 2, Horizon: 1, SkipSteadyState: true}
}
func fig6Analyzer() core.Analyzer { return core.Analyzer{NMax: 2, Horizon: 1} }

// sweepCell is the cell core.Sweep analyses for Figure-6 point it: a clone
// of Architecture 1 with the 3G unit's patch rate or its internet exploit
// rate set to the point's rate.
func sweepCell(in *paperInputs, it paperItem) cell {
	a := in.archs[0].Clone()
	e := a.ECU(arch.Telematics)
	if it.kind == patchItem {
		e.PatchRate = in.rates[it.k]
	} else {
		for i := range e.Interfaces {
			if e.Interfaces[i].Bus == arch.BusInternet {
				e.Interfaces[i].ExploitRate = in.rates[it.k]
			}
		}
	}
	an := fig6Analyzer()
	an.SkipSteadyState = true
	return cell{arch: a, msg: arch.MessageM, an: an, cat: transform.Confidentiality, prot: transform.Unencrypted}
}

// runItem analyses one item through the library's public functions and
// stores its value.
func runItem(ctx context.Context, in *paperInputs, an5, an6 core.Analyzer, it paperItem, v *paperValues) error {
	switch it.kind {
	case fig5Item:
		r, err := an5.AnalyzeContext(ctx, in.archs[it.a], arch.MessageM, core.Categories[it.c], core.Protections[it.p])
		if err != nil {
			return err
		}
		v.fig5[it.a][it.c][it.p] = r.TimeFraction
	case patchItem, exploitItem:
		param, bus, dst := core.SweepPatchRate, "", &v.patch[it.k]
		if it.kind == exploitItem {
			param, bus, dst = core.SweepExploitRate, arch.BusInternet, &v.exploit[it.k]
		}
		pts, err := an6.SweepContext(ctx, in.archs[0], arch.MessageM, transform.Confidentiality, transform.Unencrypted,
			param, arch.Telematics, bus, in.rates[it.k:it.k+1])
		if err != nil {
			return err
		}
		*dst = pts[0].TimeFraction
	case eq15Item:
		model, consts, err := prismlang.ParseModelFull(in.fig3)
		if err != nil {
			return err
		}
		ex, err := model.ExploreContext(ctx, modular.ExploreOpts{})
		if err != nil {
			return err
		}
		prop, err := csl.Parse(eq15Query, csl.Environment{Model: model, Consts: consts})
		if err != nil {
			return err
		}
		res, err := csl.NewChecker(ex).CheckContext(ctx, prop)
		if err != nil {
			return err
		}
		v.eq15 = res.Value
	}
	return nil
}

// tracedItem analyses one item composed from the layers' entry points
// under t and reports a disagreement with the untraced reference value.
func tracedItem(ctx context.Context, t *tracer, in *paperInputs, it paperItem, ref *paperValues) (mismatch, err error) {
	switch it.kind {
	case fig5Item:
		c := cell{arch: in.archs[it.a], msg: arch.MessageM, an: fig5Analyzer(), cat: core.Categories[it.c], prot: core.Protections[it.p]}
		r, mismatch, err := tracedCell(ctx, t, c)
		if err != nil || mismatch != nil {
			return mismatch, err
		}
		if !sameBits(r.TimeFraction, ref.fig5[it.a][it.c][it.p]) {
			return fmt.Errorf("traced Figure-5 cell %v gives %v, untraced %v", it, r.TimeFraction, ref.fig5[it.a][it.c][it.p]), nil
		}
	case patchItem, exploitItem:
		want := ref.patch[it.k]
		if it.kind == exploitItem {
			want = ref.exploit[it.k]
		}
		r, mismatch, err := tracedCell(ctx, t, sweepCell(in, it))
		if err != nil || mismatch != nil {
			return mismatch, err
		}
		if !sameBits(r.TimeFraction, want) {
			return fmt.Errorf("traced Figure-6 point %v gives %v, untraced sweep %v", it, r.TimeFraction, want), nil
		}
	case eq15Item:
		var (
			model  *modular.Model
			consts map[string]modular.Value
		)
		if _, err := t.do("prismlang.parse", func() (err error) {
			model, consts, err = prismlang.ParseModelFull(in.fig3)
			return err
		}); err != nil {
			return nil, err
		}
		ex, err := explore(ctx, t, model)
		if err != nil {
			return nil, err
		}
		value, err := checkQuery(ctx, t, csl.Environment{Model: model, Consts: consts}, ex, eq15Query)
		if err != nil {
			return nil, err
		}
		if _, err := t.do("ctmc.steady", func() error {
			_, err := ex.Chain.SteadyStateContext(ctx, ex.InitDistribution())
			return err
		}); err != nil {
			return nil, err
		}
		if !sameBits(value, ref.eq15) {
			return fmt.Errorf("traced Eq. 15 gives %v, untraced %v", value, ref.eq15), nil
		}
	}
	return nil, nil
}

// paperPass runs every item once in the given order, timing each into ph
// (nil for none), and returns the pass's values and how many items failed.
func paperPass(ctx context.Context, in *paperInputs, order []paperItem, ph *phase, log io.Writer) (*paperValues, int, error) {
	an5, an6 := fig5Analyzer(), fig6Analyzer()
	v := new(paperValues)
	failed := 0
	for _, it := range order {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if err := runItem(ctx, in, an5, an6, it, v); err != nil {
			logf(log, "paper-figures: analysis %+v failed: %v", it, err)
			failed++
			continue
		}
		if ph != nil {
			ph.add(time.Since(start))
		}
	}
	return v, failed, nil
}

// loadPaperInputs reads the evaluation's inputs from the repository.
func loadPaperInputs(root string) (*paperInputs, error) {
	src, err := os.ReadFile(filepath.Join(root, "models", "paper_fig3.pm"))
	if err != nil {
		return nil, err
	}
	return &paperInputs{archs: arch.CaseStudy(), rates: core.LogSpace(0.1, 8760, fig6Points), fig3: string(src)}, nil
}

// checkPaperPass runs one untimed pass of the paper's evaluation, in the
// paper's order, and its output checks. Workloads that do not time the
// evaluation run it after their own checks, so every gated run still
// checks Eq. 15 and Figures 5 and 6 and drives the PRISM model parser.
func checkPaperPass(ctx context.Context, o options, rep *report, log io.Writer) error {
	in, err := loadPaperInputs(o.root)
	if err != nil {
		return err
	}
	v, failed, err := paperPass(ctx, in, paperItems(), nil, log)
	if err != nil {
		return err
	}
	if failed > 0 {
		rep.checkf("paper evaluation: %d of %d analyses failed", failed, len(paperItems()))
		return nil
	}
	if o.perturb == "fig5" {
		v.fig5[0][0][1] *= 1 + 1e-6
	}
	return checkPaper(ctx, rep, in, v, []*paperValues{v})
}

func runPaperFigures(ctx context.Context, o options, log io.Writer) (*report, error) {
	in, err := loadPaperInputs(o.root)
	if err != nil {
		return nil, err
	}
	loaded := time.Since(processStart)
	items := paperItems()
	rng := rand.New(rand.NewSource(o.seed))
	shuffled := func() []paperItem {
		order := append([]paperItem(nil), items...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}

	rep := &report{}
	var passes []*paperValues
	var setupDs []time.Duration
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		v, failed, err := paperPass(ctx, in, items, nil, log)
		if err != nil {
			return nil, err
		}
		if failed > 0 {
			return nil, fmt.Errorf("set-up pass: %d analyses failed", failed)
		}
		setupDs = append(setupDs, time.Since(start))
		passes = append(passes, v)
	}
	setup := loaded + median(setupDs)

	ph := startPhase()
	timed := 0
	for timed == 0 || ph.elapsed().Seconds() < o.seconds {
		v, failed, err := paperPass(ctx, in, shuffled(), ph, log)
		if err != nil {
			return nil, err
		}
		rep.Attempted += len(items)
		rep.Failed += failed
		if failed == 0 {
			passes = append(passes, v)
		}
		timed++
	}
	ph.stop()
	analyses := len(ph.latencies())
	logf(log, "paper-figures: %d timed passes, %d analyses in %.2f s", timed, analyses, ph.wall.Seconds())
	if ok, err := endToEnd(rep, setup, ph); !ok || err != nil {
		return rep, err
	}

	if len(passes) <= o.setups {
		return nil, fmt.Errorf("no timed pass completed without a failed analysis")
	}
	ref := passes[o.setups]
	if o.perturb == "fig5" {
		ref.fig5[0][0][1] *= 1 + 1e-6
	}
	if err := checkPaper(ctx, rep, in, ref, passes); err != nil {
		return nil, err
	}

	if o.trace {
		traced := &report{}
		runtimeLayer(traced, ph)
		t := newTracer()
		tph := startPhase()
		n := 0
		for n == 0 || tph.elapsed().Seconds() < o.seconds {
			for _, it := range shuffled() {
				mismatch, err := tracedItem(ctx, t, in, it, ref)
				if err != nil {
					return nil, err
				}
				if mismatch != nil {
					rep.checkf("paper-figures: %v", mismatch)
				}
				n++
			}
		}
		tph.stop()
		logf(log, "paper-figures: traced %d analyses at %.2f/s against %.2f/s untraced (each traced analysis runs core and the composed pipeline)",
			n, float64(n)/tph.wall.Seconds(), float64(analyses)/ph.wall.Seconds())
		layerMetrics(traced, t)
		t.summarize(log)
		rep.Metrics = traced.Metrics
	}
	return rep, nil
}

// checkPaper runs the paper-figures output checks on the reference pass
// and compares every other pass with it.
func checkPaper(ctx context.Context, rep *report, in *paperInputs, ref *paperValues, passes []*paperValues) error {
	for i, v := range passes {
		if v != ref && *v != *ref {
			rep.checkf("paper-figures: pass %d differs from the reference pass", i)
		}
	}
	// Figure 5, coverage: a protection that does not cover the category
	// leaves the model unchanged; one that covers it never raises the
	// exploitable time.
	for a := range ref.fig5 {
		for c, cat := range core.Categories {
			unenc := ref.fig5[a][c][0]
			for p, prot := range core.Protections {
				got := ref.fig5[a][c][p]
				if !prot.Covers(cat) && !relClose(got, unenc, 1e-12) {
					rep.checkf("Figure 5 %s/%s/%s = %v, want the unencrypted %v", in.archs[a].Name, cat, prot, got, unenc)
				}
				if prot.Covers(cat) && got > unenc {
					rep.checkf("Figure 5 %s/%s/%s = %v exceeds the unencrypted %v", in.archs[a].Name, cat, prot, got, unenc)
				}
			}
		}
	}
	// Figure 5, ordering: Architecture 1 > 2 > 3 in every cell.
	for c, cat := range core.Categories {
		for p, prot := range core.Protections {
			if !(ref.fig5[0][c][p] > ref.fig5[1][c][p] && ref.fig5[1][c][p] > ref.fig5[2][c][p]) {
				rep.checkf("Figure 5 %s/%s: architectures not ordered 1 > 2 > 3: %v %v %v",
					cat, prot, ref.fig5[0][c][p], ref.fig5[1][c][p], ref.fig5[2][c][p])
			}
		}
	}
	// Figure 6: exploitable time falls strictly with the patch rate and
	// rises strictly with the exploit rate.
	for k := 1; k < fig6Points; k++ {
		if !(ref.patch[k] < ref.patch[k-1]) {
			rep.checkf("Figure 6a not strictly falling at rate %v: %v after %v", in.rates[k], ref.patch[k], ref.patch[k-1])
		}
		if !(ref.exploit[k] > ref.exploit[k-1]) {
			rep.checkf("Figure 6b not strictly rising at rate %v: %v after %v", in.rates[k], ref.exploit[k], ref.exploit[k-1])
		}
	}
	return checkEq15(ctx, rep, in, ref.eq15)
}

// Rates of the paper's Figure-3 example (Section 3.3): the telematics unit
// and the message protection are exploited at eta and patched at phi.
const (
	fig3Eta = 2.0
	fig3Phi = 52.0
)

// checkEq15 compares the program's stationary vector of the Figure-3 chain
// with the closed-form solve of its 3×3 balance equations.
func checkEq15(ctx context.Context, rep *report, in *paperInputs, value float64) error {
	model, _, err := prismlang.ParseModelFull(in.fig3)
	if err != nil {
		return err
	}
	ex, err := model.ExploreContext(ctx, modular.ExploreOpts{})
	if err != nil {
		return err
	}
	pi, err := ex.Chain.SteadyStateContext(ctx, ex.InitDistribution())
	if err != nil {
		return err
	}
	// s0 = (0,0), s1 = (1,0), s2 = (1,1) over (s3g, smc).
	states := [3][]int{{0, 0}, {1, 0}, {1, 1}}
	var q [3][3]float64
	q[0][1] = fig3Eta
	q[1][0], q[1][2] = fig3Phi, fig3Eta
	q[2][1], q[2][0] = fig3Phi, fig3Phi
	want := stationary3(q)
	if ex.N() != 3 {
		rep.checkf("Eq. 15 chain has %d states, want 3", ex.N())
		return nil
	}
	for s, st := range states {
		i := ex.StateIndex(st)
		if i < 0 {
			rep.checkf("Eq. 15 state %v unreachable", st)
			continue
		}
		if !relClose(pi[i], want[s], 1e-9) {
			rep.checkf("Eq. 15 stationary s%d = %v, closed form %v", s, pi[i], want[s])
		}
	}
	if !relClose(value, want[2], 1e-9) {
		rep.checkf("Eq. 15 S=? [\"exploited\"] = %v, closed form %v", value, want[2])
	}
	// The paper prints P[s2] = 0.0699 %.
	if math.Abs(100*want[2]-0.0699) > 0.00005 {
		rep.checkf("Eq. 15 closed form P[s2] = %.6f %%, paper 0.0699 %%", 100*want[2])
	}
	return nil
}

// stationary3 solves πQ = 0, Σπ = 1 for a 3-state chain with off-diagonal
// rates r by Gaussian elimination with partial pivoting.
func stationary3(r [3][3]float64) [3]float64 {
	// Rows 0 and 1 are balance equations (column j of Q); row 2 is Σπ = 1.
	var m [3][4]float64
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			if i == j {
				m[j][i] = -(r[i][0] + r[i][1] + r[i][2])
			} else {
				m[j][i] = r[i][j]
			}
		}
	}
	m[2] = [4]float64{1, 1, 1, 1}
	for col := 0; col < 3; col++ {
		piv := col
		for row := col + 1; row < 3; row++ {
			if math.Abs(m[row][col]) > math.Abs(m[piv][col]) {
				piv = row
			}
		}
		m[col], m[piv] = m[piv], m[col]
		for row := 0; row < 3; row++ {
			if row == col {
				continue
			}
			f := m[row][col] / m[col][col]
			for k := col; k < 4; k++ {
				m[row][k] -= f * m[col][k]
			}
		}
	}
	return [3]float64{m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]}
}
