package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shortOptions is the short mode: a brief timed phase, one set-up, a small
// synthetic architecture, every check on.
func shortOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	o, err := parseOptions([]string{"--workload", workload, "--seed", "7", "--seconds", "0.3", "--root", ".."})
	if err != nil {
		t.Fatal(err)
	}
	o.trace = trace
	o.setups = 1
	o.synthECUs = 5
	return o
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for one mode.
func benchmarkMetrics(t *testing.T, trace bool) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	list := b.EndToEnd
	if trace {
		list = b.PerLayer
	}
	out := make(map[string]string)
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

func TestShortModePassesEveryCheck(t *testing.T) {
	for _, w := range []string{"paper-figures", "synthetic-scale", "service-mix"} {
		for _, trace := range []bool{false, true} {
			o := shortOptions(t, w, trace)
			var log bytes.Buffer
			rep, err := runWorkload(context.Background(), o, &log)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, trace, err, log.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct %t, %d of %d failed, checks %q\n%s",
					w, trace, rep.Correct, rep.Failed, rep.Attempted, rep.checkFailures, log.String())
			}
			want := benchmarkMetrics(t, trace)
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%t: metric %s in %s, BENCHMARK.json says %s", w, trace, name, m.Unit, unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

func TestPerturbedOutputFailsTheRun(t *testing.T) {
	for _, c := range []struct{ workload, perturb string }{
		{"paper-figures", "fig5"},
		{"synthetic-scale", "fig5"},
		{"service-mix", "service"},
	} {
		o := shortOptions(t, c.workload, false)
		o.perturb = c.perturb
		var log bytes.Buffer
		rep, err := runWorkload(context.Background(), o, &log)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if rep.Correct || len(rep.checkFailures) == 0 {
			t.Errorf("%s: a %s output nudged by 1e-6 passed every check", c.workload, c.perturb)
		}
	}
}

func TestCommandLine(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"--workload", "paper-figures", "--seed", "3", "--seconds", "0.2", "--root", "..", "--trace", "0"}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}

	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-figures", "--trace", "2"},
		{"--workload", "paper-figures", "--root", "no-such-dir"},
	} {
		out.Reset()
		if code := run(context.Background(), bad, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d with output %q, want exit 2 and no result", bad, code, out.String())
		}
	}
}

func TestInterruptPrintsNoResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut bytes.Buffer
	args := []string{"--workload", "service-mix", "--seconds", "5", "--root", ".."}
	if code := run(ctx, args, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("interrupted run: exit %d, output %q", code, out.String())
	}
}

func TestClosedFormTrees(t *testing.T) {
	// Two-leaf cases worked by hand at t = 1.
	l1, l2 := 1.0, 2.0
	for _, c := range []struct {
		gate string
		want float64
	}{
		{"or", 1 - 0.049787068367863944},                              // 1 − e^{−3}
		{"and", (1 - 0.36787944117144233) * (1 - 0.1353352832366127)}, // (1 − e^{−1})(1 − e^{−2})
		{"sand", 1 - (2*0.36787944117144233 - 0.1353352832366127)},    // 1 − (λ2 e^{−λ1} − λ1 e^{−λ2})/(λ2 − λ1)
	} {
		got := closedForm{gate: c.gate, rates: []float64{l1, l2}, horizon: 1}.value()
		if !relClose(got, c.want, 1e-14) {
			t.Errorf("%s: %v, want %v", c.gate, got, c.want)
		}
	}
}

func TestStationary3(t *testing.T) {
	var q [3][3]float64
	q[0][1] = fig3Eta
	q[1][0], q[1][2] = fig3Phi, fig3Eta
	q[2][1], q[2][0] = fig3Phi, fig3Phi
	pi := stationary3(q)
	// Balance of s2: π2 (2φ) = π1 η.
	if !relClose(pi[2]*2*fig3Phi, pi[1]*fig3Eta, 1e-14) || !relClose(pi[0]+pi[1]+pi[2], 1, 1e-15) {
		t.Errorf("stationary3 = %v", pi)
	}
}
