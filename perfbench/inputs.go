package main

import (
	"math"
	"math/rand"
	"strconv"

	"summarycache/internal/stats"
	"summarycache/internal/trace"
)

// Mesh shape shared by hit_mix and miss_churn.
const (
	meshProxies = 4
	// clients is the closed-loop client count: at most one per CPU of the
	// 2-CPU host, so never more than 2 requests are in flight.
	clients = 2
	// warmRequests are issued after the mesh converges and before the
	// clock starts, so keep-alive connections (client→proxy, proxy→sibling,
	// proxy→origin) exist when timing begins.
	warmRequests = 256

	// hit_mix: every proxy holds its own resident set; 60% of requests ask
	// the receiving proxy for one of its own documents.
	hitResidentPerProxy = 400
	hitLocalShare       = 0.60
	hitTimedLen         = 1 << 18 // cycled; long enough that cycling repeats no short pattern
	hitCacheBytes       = 64 << 20

	// miss_churn: small caches pre-filled past capacity, then never-seen
	// documents only, so every timed insert evicts.
	churnCacheBytes = 1 << 20
	churnPrefill    = 1.25    // fill factor relative to churnCacheBytes
	churnTimedLen   = 1000000 // over twice what 30 s consume at 15k requests/s
	churnLadderLen  = 4000    // never-seen documents reserved for the layer ladder
)

// docSizes is the document-size law of both mesh workloads: the Wisconsin
// Proxy Benchmark's Pareto body (alpha 1.1, 1 KB minimum) truncated at
// 64 KB, so one document never dominates a 1 MB churn cache.
var docSizes = stats.Pareto{Alpha: 1.1, Min: 1024, Max: 64 << 10}

// sizeBlock is the stratification block of document sizes.
const sizeBlock = 400

// sizer hands out document sizes stratified in blocks of sizeBlock: each
// block holds the law's sizeBlock quantiles at (k+0.5)/sizeBlock in a
// seeded random order. Every seed thus gets the same size mix and only the
// assignment of sizes to documents varies, so the tail of the latency
// distribution does not move with the handful of largest documents a free
// draw would give.
type sizer struct {
	rng   *rand.Rand
	block []int64
	next  int
}

func newSizer(rng *rand.Rand) *sizer {
	return &sizer{rng: rng, block: make([]int64, sizeBlock), next: sizeBlock}
}

func (s *sizer) size() int64 {
	if s.next == sizeBlock {
		for k := range s.block {
			s.block[k] = paretoQuantile(docSizes, (float64(k)+0.5)/sizeBlock)
		}
		s.rng.Shuffle(sizeBlock, func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.next = 0
	}
	s.next++
	return s.block[s.next-1]
}

// paretoQuantile inverts the CDF of p truncated to [Min, Max], the law
// stats.Pareto.Sample draws from by rejection.
func paretoQuantile(p stats.Pareto, u float64) int64 {
	tail := math.Pow(p.Min/p.Max, p.Alpha)
	return int64(math.Round(p.Min / math.Pow(1-u*(1-tail), 1/p.Alpha)))
}

// namespaces name the document groups. A document's path under the origin
// is <namespace>/p<owner>/d<k>.
var namespaces = [...]string{"hit", "fill", "warm", "ladder", "miss", "trace"}

const (
	nsHit = iota
	nsFill
	nsWarm
	nsLadder
	nsMiss
	nsTrace
)

// doc is one origin document. It is kept this small because miss_churn
// lists hundreds of thousands of them; its path is rendered on demand.
type doc struct {
	Size  int64
	K     uint32 // index within its namespace and owner
	Owner uint8  // the proxy whose namespace holds it
	NS    uint8  // index into namespaces
}

func (d doc) appendPath(b []byte) []byte {
	b = append(b, namespaces[d.NS]...)
	b = append(b, "/p"...)
	b = strconv.AppendUint(b, uint64(d.Owner), 10)
	b = append(b, "/d"...)
	return strconv.AppendUint(b, uint64(d.K), 10)
}

// meshReq asks proxy Proxy for document Doc (an index into meshInputs.Docs).
type meshReq struct {
	Proxy uint8
	Doc   uint32
}

// meshInputs is everything a mesh workload sends, generated from the seed
// alone. Origin and proxy addresses are not part of it: they are bound at
// set-up and only prefix the paths on the wire.
type meshInputs struct {
	Docs []doc
	// Fill lists, per proxy, the documents loaded through that proxy's
	// HTTP front end during set-up.
	Fill [meshProxies][]uint32
	Warm []meshReq
	// Timed is the request list of the measured phase. hit_mix cycles
	// through it; miss_churn consumes it once, front to back.
	Timed []meshReq
	// Ladder is the request list the layer ladder replays: a prefix of
	// Timed for hit_mix, and for miss_churn a further set of never-seen
	// documents, so the ladder's live queries are misses as well.
	Ladder []meshReq
}

// local reports whether r asks a proxy for a document it owns.
func (in *meshInputs) local(r meshReq) bool { return in.Docs[r.Doc].Owner == r.Proxy }

// hitMixInputs builds hit_mix: hitResidentPerProxy documents per proxy;
// each request goes to a uniformly random proxy and asks, with probability
// hitLocalShare, for one of that proxy's documents, otherwise for one of
// another proxy's.
func hitMixInputs(seed int64) *meshInputs {
	rng := rand.New(rand.NewSource(seed))
	sizes := newSizer(rng)
	in := &meshInputs{}
	for p := 0; p < meshProxies; p++ {
		for k := 0; k < hitResidentPerProxy; k++ {
			in.Fill[p] = append(in.Fill[p], uint32(len(in.Docs)))
			in.Docs = append(in.Docs, doc{Size: sizes.size(), K: uint32(k), Owner: uint8(p), NS: nsHit})
		}
	}
	draw := func() meshReq {
		p := rng.Intn(meshProxies)
		owner := p
		if rng.Float64() >= hitLocalShare {
			owner = (p + 1 + rng.Intn(meshProxies-1)) % meshProxies
		}
		return meshReq{Proxy: uint8(p), Doc: in.Fill[owner][rng.Intn(hitResidentPerProxy)]}
	}
	in.Warm = make([]meshReq, warmRequests)
	for i := range in.Warm {
		in.Warm[i] = draw()
	}
	in.Timed = make([]meshReq, hitTimedLen)
	for i := range in.Timed {
		in.Timed[i] = draw()
	}
	in.Ladder = in.Timed[:20000]
	return in
}

// missChurnInputs builds miss_churn: each proxy is pre-filled with its own
// documents to churnPrefill times its capacity, and every later request is
// a document no proxy has seen, sent to the proxy whose namespace owns it.
func missChurnInputs(seed int64) *meshInputs {
	rng := rand.New(rand.NewSource(seed))
	sizes := newSizer(rng)
	in := &meshInputs{}
	add := func(ns uint8, p, k int) uint32 {
		in.Docs = append(in.Docs, doc{Size: sizes.size(), K: uint32(k), Owner: uint8(p), NS: ns})
		return uint32(len(in.Docs) - 1)
	}
	for p := 0; p < meshProxies; p++ {
		var filled int64
		for k := 0; filled < int64(churnPrefill*churnCacheBytes); k++ {
			id := add(nsFill, p, k)
			in.Fill[p] = append(in.Fill[p], id)
			filled += in.Docs[id].Size
		}
	}
	fresh := func(ns uint8, n int) []meshReq {
		out := make([]meshReq, n)
		for i := range out {
			p := rng.Intn(meshProxies)
			out[i] = meshReq{Proxy: uint8(p), Doc: add(ns, p, i)}
		}
		return out
	}
	in.Warm = fresh(nsWarm, warmRequests)
	in.Ladder = fresh(nsLadder, churnLadderLen)
	in.Timed = fresh(nsMiss, churnTimedLen)
	return in
}

// traceMeshInputs turns the start of trace_sim's trace into the ladder list
// of its live round: the first ladderLiveOps requests, each sent to the
// proxy of its client group, which owns the documents first requested
// there. Sizes are the trace's, clamped to docSizes' range so every body
// fits the fetcher's buffer.
func traceMeshInputs(reqs []trace.Request) *meshInputs {
	in := &meshInputs{}
	ids := make(map[string]uint32)
	var next [meshProxies]uint32
	for _, r := range reqs {
		if len(in.Ladder) == ladderLiveOps {
			break
		}
		id, ok := ids[r.URL]
		if !ok {
			p := r.Group(meshProxies)
			size := min(max(r.Size, int64(docSizes.Min)), int64(docSizes.Max))
			id = uint32(len(in.Docs))
			in.Docs = append(in.Docs, doc{Size: size, K: next[p], Owner: uint8(p), NS: nsTrace})
			next[p]++
			ids[r.URL] = id
		}
		in.Ladder = append(in.Ladder, meshReq{Proxy: in.Docs[id].Owner, Doc: id})
	}
	return in
}
