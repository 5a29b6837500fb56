// Command secperf is the repository's self-checking benchmark. One
// invocation runs one workload in a fresh process, measures it for a fixed
// time, checks every output against a computation made apart from the
// program (or a property the method must have), and prints one JSON result
// line:
//
//	{"correct": true, "attempted": 432, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash secperf/run.sh --workload synthetic-scale --seed 1 --seconds 25 --trace 0
//
// Workloads are paper-figures, synthetic-scale and service-mix (see
// README.md). With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run additionally composes every analysis from the layers'
// own entry points, times each call in a span of its own and reports the
// per-layer metrics. The command exits 1 when an output check fails and 2
// on a usage error, an interrupt or a failure to run at all.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start for paper-figures' set-up
// time: package variables are initialised before main runs.
var processStart = time.Now()

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository root (models/ is read from it).
	root string
	// setups is how many times set-up is repeated; setup_s is their median
	// (3; the short test mode uses 1).
	setups int
	// synthECUs sizes the synthetic architecture (9 for the benchmark; the
	// short test mode uses a smaller one).
	synthECUs int
	// perturb names an output to nudge by one part in a million before
	// the checks run; the tests use it to show that the checks bite.
	perturb string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back: the result plus the failed checks.
type report struct {
	result
	checkFailures []string
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// checkf records a failed output check.
func (r *report) checkf(format string, args ...any) {
	r.checkFailures = append(r.checkFailures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, options, io.Writer) (*report, error){
	"paper-figures":   runPaperFigures,
	"synthetic-scale": runSyntheticScale,
	"service-mix":     runServiceMix,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(stderr, "secperf:", err)
		return 2
	}
	rep, err := runWorkload(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "secperf:", err)
		return 2
	}
	for _, f := range rep.checkFailures {
		fmt.Fprintln(stderr, "secperf: check failed:", f)
	}
	if rep.Metrics == nil {
		rep.Metrics = map[string]metric{}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "secperf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("secperf", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "paper-figures | synthetic-scale | service-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	o.trace = *trace == 1
	o.setups = 3
	o.synthECUs = 9
	return o, nil
}

// runWorkload runs one workload and settles its verdict.
func runWorkload(ctx context.Context, o options, log io.Writer) (*report, error) {
	if _, err := os.Stat(filepath.Join(o.root, "models", "paper_fig3.pm")); err != nil {
		return nil, fmt.Errorf("repository root %q: %w", o.root, err)
	}
	rep, err := workloads[o.workload](ctx, o, log)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			err = fmt.Errorf("interrupted: %w", err)
		}
		return nil, err
	}
	if rep.Attempted < 1 {
		rep.checkf("no analysis was attempted")
	}
	rep.Correct = len(rep.checkFailures) == 0
	return rep, nil
}
