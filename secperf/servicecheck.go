package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/arch"
	"repro/internal/attacktree"
	"repro/internal/core"
	"repro/internal/csl"
	"repro/internal/modular"
	"repro/internal/service"
	"repro/internal/transform"
)

// checkServiceMix runs the service-mix output checks: every hot request
// was a cache hit returning its priming answer's bytes, every new request
// was a miss, every distinct answer equals the library's answer for the
// same request, and closed-form trees match their formulas. With a tracer
// the first distinct answers are recomputed composed from the layers under
// it; the rest are checked by two untraced workers.
func checkServiceMix(ctx context.Context, rep *report, t *tracer, records, primed []mixRecord) error {
	first := make(map[int][]byte, len(primed))
	for _, rec := range primed {
		first[rec.r.id] = rec.payload
	}
	distinct := append([]mixRecord(nil), primed...)
	for _, rec := range records {
		if rec.err != nil {
			continue
		}
		want := service.CacheMiss
		if rec.hot {
			want = service.CacheHit
			if !bytes.Equal(rec.payload, first[rec.r.id]) {
				rep.checkf("service-mix: hit on %s request %d returned other bytes than its first answer", rec.r.class, rec.r.id)
			}
		} else {
			distinct = append(distinct, rec)
		}
		if rec.view.Cache != want {
			rep.checkf("service-mix: %s request %d (hot %t) served as %q, want %q", rec.r.class, rec.r.id, rec.hot, rec.view.Cache, want)
		}
	}
	for _, rec := range distinct {
		if rec.r.class == "closed" {
			if rec.view.Tree == nil {
				rep.checkf("service-mix: closed-form tree %d: no tree result", rec.r.id)
			} else if got := rec.view.Tree.TopEventProbability; math.Abs(got-rec.r.closed) > 1e-9 {
				rep.checkf("service-mix: closed-form tree %d: P(top) = %v, formula %v", rec.r.id, got, rec.r.closed)
			}
		}
	}

	var (
		mu         sync.Mutex
		mismatches []string
		firstErr   error
	)
	note := func(rec mixRecord, mismatch, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("library answer for %s request %d: %w", rec.r.class, rec.r.id, err)
		}
		if mismatch != nil {
			mismatches = append(mismatches, fmt.Sprintf("service-mix: %s request %d: %v", rec.r.class, rec.r.id, mismatch))
		}
	}
	rest := distinct
	if t != nil {
		n := min(mixTracedChecks, len(distinct))
		for _, rec := range distinct[:n] {
			mismatch, err := libraryMatch(ctx, t, rec)
			note(rec, mismatch, err)
		}
		rest = distinct[n:]
	}
	work := make(chan mixRecord)
	var wg sync.WaitGroup
	for i := 0; i < mixClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range work {
				mismatch, err := libraryMatch(ctx, nil, rec)
				note(rec, mismatch, err)
			}
		}()
	}
	for _, rec := range rest {
		if ctx.Err() != nil {
			break
		}
		work <- rec
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	rep.checkFailures = append(rep.checkFailures, mismatches...)
	return ctx.Err()
}

// libraryMatch computes rec's request with the library and compares the
// service's answer with it, bit for bit.
func libraryMatch(ctx context.Context, t *tracer, rec mixRecord) (mismatch, err error) {
	req, v := rec.r.req, rec.view
	if req.Kind == service.KindAttackTree {
		return treeMatch(ctx, t, req, v)
	}
	var a *arch.Architecture
	if len(req.Inline) > 0 {
		if a, err = arch.FromJSON(req.Inline); err != nil {
			return nil, err
		}
	} else {
		a = map[string]func() *arch.Architecture{
			"builtin:1": arch.Architecture1, "builtin:2": arch.Architecture2, "builtin:3": arch.Architecture3,
		}[req.Architecture]()
	}
	an := core.Analyzer{NMax: req.NMax, Horizon: req.Horizon, SkipSteadyState: req.SkipSteadyState}
	type pair struct {
		cat  transform.Category
		prot transform.Protection
	}
	var cells []pair
	if req.Category == "" {
		for _, c := range core.Categories {
			for _, p := range core.Protections {
				cells = append(cells, pair{c, p})
			}
		}
	} else {
		c, err := transform.ParseCategory(req.Category)
		if err != nil {
			return nil, err
		}
		p, err := transform.ParseProtection(req.Protection)
		if err != nil {
			return nil, err
		}
		cells = append(cells, pair{c, p})
	}
	if req.Property != "" {
		got, err := propertyValue(ctx, t, cell{arch: a, msg: arch.MessageM, an: an, cat: cells[0].cat, prot: cells[0].prot}, req.Property)
		if err != nil {
			return nil, err
		}
		if v.Property == nil || !sameBits(v.Property.Value, got) {
			return fmt.Errorf("service answered %+v, library %v", v.Property, got), nil
		}
		return nil, nil
	}
	if len(v.Results) != len(cells) {
		return fmt.Errorf("service answered %d cells, want %d", len(v.Results), len(cells)), nil
	}
	for i, c := range cells {
		var r *core.Result
		if t == nil {
			if r, err = an.AnalyzeContext(ctx, a, arch.MessageM, c.cat, c.prot); err != nil {
				return nil, err
			}
		} else {
			r, mismatch, err = tracedCell(ctx, t, cell{arch: a, msg: arch.MessageM, an: an, cat: c.cat, prot: c.prot})
			if err != nil || mismatch != nil {
				return mismatch, err
			}
		}
		got := v.Results[i]
		steady := math.NaN()
		if got.SteadyState != nil {
			steady = *got.SteadyState
		}
		if got.Architecture != a.Name || got.Category != c.cat.String() || got.Protection != c.prot.String() ||
			!sameBits(got.ExploitableTime, r.TimeFraction) || !sameBits(steady, r.SteadyState) ||
			got.States != r.States || got.Transitions != r.Transitions {
			return fmt.Errorf("cell %d: service answered %+v, library %+v", i, got, r), nil
		}
	}
	return nil, nil
}

// propertyValue checks a CSL property on c's model: through
// core.CheckPropertyContext untraced, composed from transform.Build,
// Model.ExploreContext, csl.Parse and Checker.CheckContext when traced.
func propertyValue(ctx context.Context, t *tracer, c cell, property string) (float64, error) {
	if t == nil {
		res, err := c.an.CheckPropertyContext(ctx, c.arch, c.msg, c.cat, c.prot, property)
		return res.Value, err
	}
	var res *transform.Result
	if _, err := t.do("transform.build", func() (err error) {
		res, err = transform.Build(c.arch, c.msg, c.an.TransformOptions(c.cat, c.prot))
		return err
	}); err != nil {
		return 0, err
	}
	ex, err := explore(ctx, t, res.Model)
	if err != nil {
		return 0, err
	}
	return checkQuery(ctx, t, csl.Environment{Model: res.Model}, ex, property)
}

// checkQuery parses a CSL query in env (a prismlang.parse span: the
// property parser is built on the PRISM front end's lexer) and checks it
// on ex (a csl.check span).
func checkQuery(ctx context.Context, t *tracer, env csl.Environment, ex *modular.Explored, query string) (float64, error) {
	var prop *csl.Property
	if _, err := t.do("prismlang.parse", func() (err error) {
		prop, err = csl.Parse(query, env)
		return err
	}); err != nil {
		return 0, err
	}
	var res csl.Result
	_, err := t.do("csl.check", func() (err error) {
		res, err = csl.NewChecker(ex).CheckContext(ctx, prop)
		return err
	})
	return res.Value, err
}

// treeMatch answers an attack-tree request the way the library composes
// it — attacktree.Compile, exploration, the top-event and mean-time-to-
// attack queries — and compares the service's answer with it.
func treeMatch(ctx context.Context, t *tracer, req *service.AnalysisRequest, v *service.JobView) (mismatch, err error) {
	tree, err := attacktree.Parse(req.Inline)
	if err != nil {
		return nil, err
	}
	var c *attacktree.Compiled
	if _, err := t.do("attacktree.compile", func() (err error) {
		c, err = attacktree.Compile(tree, attacktree.CompileOptions{Applied: req.Countermeasures})
		return err
	}); err != nil {
		return nil, err
	}
	ex, err := explore(ctx, t, c.Model)
	if err != nil {
		return nil, err
	}
	horizon := req.Horizon
	if horizon == 0 {
		horizon = 1
	}
	top, err := checkQuery(ctx, t, csl.Environment{Model: c.Model}, ex, attacktree.TopEventQuery(horizon))
	if err != nil {
		return nil, err
	}
	mtta, err := checkQuery(ctx, t, csl.Environment{Model: c.Model}, ex, attacktree.MTTAQuery())
	hasMTTA := err == nil && !math.IsInf(mtta, 0) && !math.IsNaN(mtta)
	got := v.Tree
	if got == nil {
		return fmt.Errorf("service answered no tree result"), nil
	}
	if !sameBits(got.TopEventProbability, top) || (got.MTTAYears != nil) != hasMTTA ||
		(hasMTTA && !sameBits(*got.MTTAYears, mtta)) || got.States != ex.N() ||
		got.Transitions != ex.Chain.Rates.NNZ() || got.Cost != c.Cost {
		return fmt.Errorf("service answered %+v, library P(top) %v, MTTA %v (%t), %d states", *got, top, mtta, hasMTTA, ex.N()), nil
	}
	return nil, nil
}
