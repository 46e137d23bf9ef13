package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestRunPinnedResults pins sim.Run's complete Result for every summary
// kind under both sharing schemes on a small trace with version changes.
// The figures were recorded from the engine before the holder count let it
// skip the false-miss scan for URLs no cache holds, and before the hashing
// kernel went word-wise; both changes must leave every count as it was.
func TestRunPinnedResults(t *testing.T) {
	reqs := testTrace(t, 10000)
	per := cacheSizeFor(t, reqs, 0.2, 4)
	cases := []struct {
		scheme Scheme
		kind   SummaryKind
		want   Result
	}{
		{SimpleSharing, Oracle, Result{Requests: 10000, LocalHits: 4662, RemoteHits: 986, RequestBytes: 67304373, HitBytes: 34244525, RemoteStaleHits: 37, LocalStale: 94}},
		{SimpleSharing, ICP, Result{Requests: 10000, LocalHits: 4662, RemoteHits: 986, RequestBytes: 67304373, HitBytes: 34244525, RemoteStaleHits: 37, LocalStale: 94, QueryMessages: 16014, ReplyMessages: 16014, QueryBytes: 880497}},
		{SimpleSharing, ExactDirectory, Result{Requests: 10000, LocalHits: 4662, RemoteHits: 979, RequestBytes: 67304373, HitBytes: 34223774, FalseHits: 11, FalseMisses: 7, RemoteStaleHits: 37, LocalStale: 94, QueryMessages: 1547, ReplyMessages: 1547, UpdateMessages: 4059, QueryBytes: 81280, UpdateBytes: 537612, SummaryMemoryBytes: 3504, UpdateEvents: 1353}},
		{SimpleSharing, ServerName, Result{Requests: 10000, LocalHits: 4662, RemoteHits: 985, RequestBytes: 67304373, HitBytes: 34243005, FalseHits: 1832, FalseMisses: 1, RemoteStaleHits: 37, LocalStale: 94, QueryMessages: 5873, ReplyMessages: 5873, UpdateMessages: 4059, QueryBytes: 313679, UpdateBytes: 346572, SummaryMemoryBytes: 3188, UpdateEvents: 1353}},
		{SimpleSharing, Bloom, Result{Requests: 10000, LocalHits: 4662, RemoteHits: 979, RequestBytes: 67304373, HitBytes: 34223774, FalseHits: 817, FalseMisses: 7, RemoteStaleHits: 37, LocalStale: 94, QueryMessages: 2592, ReplyMessages: 2592, UpdateMessages: 4059, QueryBytes: 139010, UpdateBytes: 359100, SummaryMemoryBytes: 144, CounterMemoryBytes: 576, UpdateEvents: 1353, BitsFlippedPerEvent: 14.23076923076923}},
		{SimpleSharing, BloomDigest, Result{Requests: 10000, LocalHits: 4662, RemoteHits: 979, RequestBytes: 67304373, HitBytes: 34223774, FalseHits: 817, FalseMisses: 7, RemoteStaleHits: 37, LocalStale: 94, QueryMessages: 2592, ReplyMessages: 2592, UpdateMessages: 4059, QueryBytes: 139010, UpdateBytes: 714384, SummaryMemoryBytes: 144, CounterMemoryBytes: 576, UpdateEvents: 1353, BitsFlippedPerEvent: 14.23076923076923}},
		{SingleCopySharing, Oracle, Result{Requests: 10000, LocalHits: 3310, RemoteHits: 2705, RequestBytes: 67304373, HitBytes: 36183629, RemoteStaleHits: 31, LocalStale: 200}},
		{SingleCopySharing, ICP, Result{Requests: 10000, LocalHits: 3310, RemoteHits: 2705, RequestBytes: 67304373, HitBytes: 36183629, RemoteStaleHits: 31, LocalStale: 200, QueryMessages: 20070, ReplyMessages: 20070, QueryBytes: 1088949}},
		{SingleCopySharing, ExactDirectory, Result{Requests: 10000, LocalHits: 3318, RemoteHits: 2686, RequestBytes: 67304373, HitBytes: 36150414, FalseHits: 3, FalseMisses: 9, RemoteStaleHits: 33, LocalStale: 231, QueryMessages: 3147, ReplyMessages: 3147, UpdateMessages: 3084, QueryBytes: 164300, UpdateBytes: 390048, SummaryMemoryBytes: 3632, UpdateEvents: 1028}},
		{SingleCopySharing, ServerName, Result{Requests: 10000, LocalHits: 3312, RemoteHits: 2700, RequestBytes: 67304373, HitBytes: 36164221, FalseHits: 1768, FalseMisses: 2, RemoteStaleHits: 31, LocalStale: 200, QueryMessages: 9806, ReplyMessages: 9806, UpdateMessages: 3084, QueryBytes: 517783, UpdateBytes: 271296, SummaryMemoryBytes: 3917, UpdateEvents: 1028}},
		{SingleCopySharing, Bloom, Result{Requests: 10000, LocalHits: 3318, RemoteHits: 2687, RequestBytes: 67304373, HitBytes: 36151675, FalseHits: 903, FalseMisses: 8, RemoteStaleHits: 33, LocalStale: 231, QueryMessages: 4555, ReplyMessages: 4555, UpdateMessages: 3084, QueryBytes: 241424, UpdateBytes: 256368, SummaryMemoryBytes: 144, CounterMemoryBytes: 576, UpdateEvents: 1028, BitsFlippedPerEvent: 12.96761133603239}},
		{SingleCopySharing, BloomDigest, Result{Requests: 10000, LocalHits: 3318, RemoteHits: 2687, RequestBytes: 67304373, HitBytes: 36151675, FalseHits: 903, FalseMisses: 8, RemoteStaleHits: 33, LocalStale: 231, QueryMessages: 4555, ReplyMessages: 4555, UpdateMessages: 3084, QueryBytes: 241424, UpdateBytes: 542784, SummaryMemoryBytes: 144, CounterMemoryBytes: 576, UpdateEvents: 1028, BitsFlippedPerEvent: 12.96761133603239}},
	}
	var falseMisses, localStale, remoteStale uint64
	for _, c := range cases {
		cfg := Config{NumProxies: 4, CacheBytes: per, Scheme: c.scheme,
			Summary: SummaryConfig{Kind: c.kind, UpdateThreshold: 0.02, LoadFactor: 8}}
		got, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		got.Config = Config{}
		if got != c.want {
			t.Errorf("%v/%v: %s", c.scheme, c.kind, resultDiff(got, c.want))
		}
		falseMisses += got.FalseMisses
		localStale += got.LocalStale
		remoteStale += got.RemoteStaleHits
	}
	// The pins only prove something if the trace reaches every error path
	// the skip and the kernel could disturb.
	if falseMisses == 0 || localStale == 0 || remoteStale == 0 {
		t.Fatalf("trace exercises too little: FalseMisses=%d LocalStale=%d RemoteStaleHits=%d", falseMisses, localStale, remoteStale)
	}
}

// resultDiff lists the fields in which got differs from want.
func resultDiff(got, want Result) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var out []string
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s got %v want %v", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface()))
		}
	}
	return strings.Join(out, "; ")
}
