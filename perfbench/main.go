// Command perfbench is the repository's benchmark. It runs one workload —
// hit_mix, miss_churn or trace_sim — against the in-process origin, proxies
// and simulator, checks every output, and prints one JSON result line.
//
//	perfbench --workload hit_mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 it carries the per-layer metrics: the run is split into
// an untraced and a traced half (their difference is the span-recording
// overhead), and a layer ladder replays the workload's inputs against each
// layer's public API inside spans. perfbench/run.sh builds and runs it; see
// perfbench/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // shown in the human-readable table only
	// info marks a value shown in the table but left out of the result
	// line, which carries exactly the metrics BENCHMARK.json lists.
	info bool
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           []metric
	violations        []string
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// info adds a value that only some workloads have, for the table.
func (r *result) info(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note, info: true})
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	spansDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "hit_mix, miss_churn or trace_sim")
	fs.Int64Var(&o.seed, "seed", shippedSeed, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.spansDir, "spans-dir", ".bench_build/perfbench/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0|1 and no positional arguments")
		return 2
	}
	o.traced = trace == 1
	var res *result
	var err error
	switch o.workload {
	case "hit_mix", "miss_churn":
		res, err = runMesh(o)
	case "trace_sim":
		res, err = runTraceSim(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := checkMetrics(res, o.traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printTable(stdout, o, res)
	line, err := resultJSON(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(res.violations) > 0 {
		for _, v := range res.violations {
			fmt.Fprintln(stderr, "perfbench: correctness:", v)
		}
		return 1
	}
	return 0
}

// endToEnd lists the metrics of an untraced run: every workload reports
// each of them, as BENCHMARK.json's end_to_end list names them.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", unitRate},
	{"cpu_us_per_req", unitUS},
	{"udp_msgs_per_req", unitPerRq},
	{"udp_bytes_per_req", unitBPerR},
	{"setup_s", unitSec},
	{"rss_peak_mb", unitMB},
}

// checkMetrics refuses a result whose result-line metrics are not exactly
// the mode's list — endToEnd untraced, layers.json traced — each once, in
// its unit and finite.
func checkMetrics(res *result, traced bool) error {
	want := make(map[string]string)
	if traced {
		for _, r := range layerRows {
			want[r.Name] = r.Unit
		}
	} else {
		for _, m := range endToEnd {
			want[m.name] = m.unit
		}
	}
	var errs []error
	seen := make(map[string]bool)
	for _, m := range res.metrics {
		if m.info {
			continue
		}
		if unit, ok := want[m.name]; !ok || unit != m.unit || seen[m.name] {
			errs = append(errs, fmt.Errorf("metric %s (%s) is not listed for this mode, or repeated", m.name, m.unit))
		}
		seen[m.name] = true
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			errs = append(errs, fmt.Errorf("metric %s is %v", m.name, m.value))
		}
	}
	for name := range want {
		if !seen[name] {
			errs = append(errs, fmt.Errorf("metric %s is missing", name))
		}
	}
	return errors.Join(errs...)
}

func printTable(w io.Writer, o options, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v\n", o.workload, o.seed, o.seconds, o.traced)
	for _, m := range res.metrics {
		note := m.note
		if m.info {
			note = "(table only) " + note
		}
		fmt.Fprintf(w, "  %-34s %14s %-6s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, note)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  violations %d\n", res.attempted, res.failed, len(res.violations))
}

// resultJSON renders the result line, keeping the metrics in report order
// and every value at full precision.
func resultJSON(res *result) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, len(res.violations) == 0, res.attempted, res.failed)
	first := true
	for _, m := range res.metrics {
		if m.info {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		name, _ := json.Marshal(m.name) // marshaling a string cannot fail
		unit, _ := json.Marshal(m.unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, strconv.FormatFloat(m.value, 'g', -1, 64), unit)
	}
	b.WriteString("}}")
	if !json.Valid([]byte(b.String())) {
		return "", fmt.Errorf("result line is not valid JSON: %s", b.String())
	}
	return b.String(), nil
}
