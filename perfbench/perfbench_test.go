package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"summarycache/internal/origin"
)

func TestNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		name      string
		n         int
		p         float64
		want      int64
		wantAbove int
		wantOK    bool
	}{
		// rank = ceil(p·n); the value is the rank-th smallest sample.
		{"p50 of 20", 20, 0.50, 10, 10, true},
		{"p50 of 21", 21, 0.50, 11, 10, true},
		{"p50 of 19 leaves 9 above", 19, 0.50, 10, 9, false},
		{"p99 of 1000", 1000, 0.99, 990, 10, true},
		{"p99 of 999 leaves 9 above", 999, 0.99, 990, 9, false},
		{"p99 of 1010", 1010, 0.99, 1000, 10, true},
		{"p99 of 100 is the 99th, 1 above", 100, 0.99, 99, 1, false},
		{"p100 is the maximum", 50, 1, 50, 0, false},
		{"rank never below 1", 30, 0.001, 1, 29, true},
	}
	for _, c := range cases {
		v, above, ok := nearestRank(seq(c.n), c.p)
		if v != c.want || above != c.wantAbove || ok != c.wantOK {
			t.Errorf("%s: nearestRank = (%d, %d, %v), want (%d, %d, %v)", c.name, v, above, ok, c.want, c.wantAbove, c.wantOK)
		}
	}
	if _, _, ok := nearestRank(nil, 0.5); ok {
		t.Error("nearestRank of no samples reported a value")
	}
	if _, err := latencies(seq(999)).percentileUS("p99", 0.99); err == nil {
		t.Error("percentileUS reported p99 of 999 samples, which leaves 9 above it")
	}
	if got, err := latencies(seq(1000)).percentileUS("p99", 0.99); err != nil || got != 0.99 {
		t.Errorf("percentileUS(p99 of 1..1000 ns) = %v, %v; want 0.99 us", got, err)
	}
}

// encode serializes the inputs byte for byte, so the same seed can be
// checked to yield identical lists.
func (in *meshInputs) encode() []byte {
	var b bytes.Buffer
	for _, d := range in.Docs {
		b.Write(d.appendPath(nil))
		fmt.Fprintf(&b, " %d %d\n", d.Size, d.Owner)
	}
	put := func(rs []meshReq) {
		for _, r := range rs {
			b.WriteByte(r.Proxy)
			_ = binary.Write(&b, binary.LittleEndian, r.Doc) // bytes.Buffer writes cannot fail
		}
		b.WriteByte('\n')
	}
	for _, f := range in.Fill {
		for _, d := range f {
			_ = binary.Write(&b, binary.LittleEndian, d)
		}
		b.WriteByte('\n')
	}
	put(in.Warm)
	put(in.Timed)
	put(in.Ladder)
	return b.Bytes()
}

func TestInputsDeterministic(t *testing.T) {
	for name, gen := range map[string]func(int64) *meshInputs{"hit_mix": hitMixInputs, "miss_churn": missChurnInputs} {
		a, b := gen(7).encode(), gen(7).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different request lists", name)
		}
		if bytes.Equal(a, gen(8).encode()) {
			t.Errorf("%s: seeds 7 and 8 gave the same request lists", name)
		}
	}
}

func TestHitMixInputsShape(t *testing.T) {
	in := hitMixInputs(3)
	local := 0
	for _, r := range in.Timed {
		if in.local(r) {
			local++
		}
	}
	share := float64(local) / float64(len(in.Timed))
	if share < hitLocalShare-0.005 || share > hitLocalShare+0.005 {
		t.Errorf("local share of the request list = %.4f, want %.2f", share, hitLocalShare)
	}
}

func TestMissChurnNeverRepeats(t *testing.T) {
	in := missChurnInputs(3)
	seen := make(map[uint32]bool)
	for p, docs := range in.Fill {
		for _, d := range docs {
			seen[d] = true
			if int(in.Docs[d].Owner) != p {
				t.Fatalf("fill document %d of proxy %d is owned by %d", d, p, in.Docs[d].Owner)
			}
		}
	}
	for _, list := range [][]meshReq{in.Warm, in.Ladder, in.Timed} {
		for _, r := range list {
			if seen[r.Doc] {
				t.Fatalf("document %s requested twice", in.Docs[r.Doc].appendPath(nil))
			}
			seen[r.Doc] = true
			if in.Docs[r.Doc].Owner != r.Proxy {
				t.Fatalf("%s sent to proxy %d, not its owner", in.Docs[r.Doc].appendPath(nil), r.Proxy)
			}
		}
	}
}

func TestTargetIsDocURL(t *testing.T) {
	in := missChurnInputs(5)
	m := &mesh{in: in, base: "http://127.0.0.1:40123"}
	for _, id := range []uint32{0, 1, uint32(len(in.Docs) / 2), uint32(len(in.Docs) - 1)} {
		d := in.Docs[id]
		if got, want := m.target(id), origin.DocURL(m.base, string(d.appendPath(nil)), d.Size, 0); got != want {
			t.Errorf("target(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestSizerKeepsTheSizeMix(t *testing.T) {
	mix := func(seed int64) []int64 {
		in := hitMixInputs(seed)
		s := make([]int64, 0, len(in.Docs))
		for _, d := range in.Docs {
			s = append(s, d.Size)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	if !reflect.DeepEqual(mix(1), mix(2)) {
		t.Error("hit_mix document sizes differ as a multiset between seeds")
	}
	if lo, hi := paretoQuantile(docSizes, 0), paretoQuantile(docSizes, 1); lo != int64(docSizes.Min) || hi != int64(docSizes.Max) {
		t.Errorf("quantiles 0 and 1 = %d, %d; want %v, %v", lo, hi, docSizes.Min, docSizes.Max)
	}
}

func TestAggregateSelfTime(t *testing.T) {
	r := &recorder{open: -1}
	r.spans = []span{
		{name: "parent", parent: -1, calls: 1, start: 0, end: 100},
		{name: "child", parent: 0, calls: 1, start: 10, end: 40},
		{name: "child", parent: 0, calls: 1, start: 50, end: 60},
		{name: "batch", parent: -1, calls: 4, start: 200, end: 240},
	}
	got := aggregate(r)
	want := map[string]layerTime{
		"parent": {calls: 1, selfNS: 60},
		"child":  {calls: 2, selfNS: 40},
		"batch":  {calls: 4, selfNS: 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesLayers pins BENCHMARK.json's per_layer list to
// layers.json, the mapping table the program reports units from, and its
// end_to_end list to the metrics every untraced run reports.
func TestBenchmarkJSONMatchesLayers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer  []map[string]string `json:"per_layer"`
		EndToEnd  []map[string]any    `json:"end_to_end"`
		Workloads []map[string]string `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var want []map[string]string
	for _, r := range layerRows {
		want = append(want, map[string]string{"name": r.Name, "unit": r.Unit, "better": r.Better})
	}
	if !reflect.DeepEqual(bench.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer differs from layers.json:\n got %v\nwant %v", bench.PerLayer, want)
	}
	e2e := make(map[string]bool)
	var gotE2E, wantE2E []string
	for _, m := range bench.EndToEnd {
		e2e[m["name"].(string)] = true
		gotE2E = append(gotE2E, m["name"].(string)+" "+m["unit"].(string))
	}
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(gotE2E, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end is %v, the program reports %v", gotE2E, wantE2E)
	}
	workloads := make(map[string]bool)
	for _, w := range bench.Workloads {
		workloads[w["name"]] = true
	}
	for _, r := range layerRows {
		for _, m := range r.Moves {
			if !e2e[m] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", r.Name, m)
			}
		}
		for _, w := range append(append([]string(nil), r.On...), r.UnchangedOn...) {
			if !workloads[w] {
				t.Errorf("%s names workload %q, which BENCHMARK.json does not have", r.Name, w)
			}
		}
	}
}

// TestCheckMetricsWantsTheManifestSet checks that a result line must carry
// exactly its mode's metrics: table-only values are ignored, a missing or
// extra metric is refused.
func TestCheckMetricsWantsTheManifestSet(t *testing.T) {
	full := func() *result {
		res := &result{}
		for _, m := range endToEnd {
			res.add(m.name, 1, m.unit, "")
		}
		res.info("latency_p50_us", 1, unitUS, "")
		return res
	}
	if err := checkMetrics(full(), false); err != nil {
		t.Errorf("full end-to-end set: %v", err)
	}
	if err := checkMetrics(full(), true); err == nil {
		t.Error("end-to-end metrics accepted as a traced result")
	}
	missing := full()
	missing.metrics = missing.metrics[1:]
	if err := checkMetrics(missing, false); err == nil {
		t.Errorf("result without %s accepted", endToEnd[0].name)
	}
	extra := full()
	extra.add("false_hit_ratio", 0.1, unitRatio, "")
	if err := checkMetrics(extra, false); err == nil {
		t.Error("result with a metric outside the manifest accepted")
	}
}
