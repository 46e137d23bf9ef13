package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"time"

	"summarycache/internal/bloom"
	"summarycache/internal/core"
	"summarycache/internal/hashing"
	"summarycache/internal/httpproxy"
	"summarycache/internal/icp"
	"summarycache/internal/lru"
)

// layersJSON is the layer → end-to-end mapping: every per-layer metric with
// its unit, its better direction, the end-to-end metrics it should move, the
// workloads it should move them on, and the workloads predicted unchanged.
// BENCHMARK.json's per_layer list is this table's name/unit/better columns.
//
//go:embed layers.json
var layersJSON []byte

// layerRow is one row of layers.json; its "measures" column is prose for
// readers and is not decoded.
type layerRow struct {
	Name        string   `json:"name"`
	Unit        string   `json:"unit"`
	Better      string   `json:"better"`
	Moves       []string `json:"moves"`
	On          []string `json:"on"`
	UnchangedOn []string `json:"unchanged_on"`
}

var layerRows, layerUnits = func() ([]layerRow, map[string]string) {
	var rows []layerRow
	if err := json.Unmarshal(layersJSON, &rows); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	units := make(map[string]string, len(rows))
	for _, r := range rows {
		units[r.Name] = r.Unit
	}
	return rows, units
}()

// addLayer reports a per-layer metric under the unit layers.json gives it.
func (r *result) addLayer(name string, value float64, note string) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("per-layer metric missing from layers.json: " + name)
	}
	r.add(name, value, unit, note)
}

// Bounds on the layer ladder's work, so a traced run stays within its time
// budget regardless of the workload's throughput.
const (
	ladderLiveOps     = 1000  // live-endpoint rounds (Lookup, ICP round trip, HTTP hops)
	ladderSimRequests = 50000 // trace requests replayed through the simulator's layers
	ladderFPProbes    = 20000 // non-member probes per filter for the false-positive ratio
)

// ladder replays a workload's inputs through the layers' public APIs,
// recording one span around each call.
type ladder struct {
	rec *recorder
	on  bool // record spans and counts

	fam     *hashing.Family
	idx     []uint64
	flipBuf []bloom.Flip

	gets, getHits       int64
	puts, evictions     int64
	changes, flips      int64
	publishes, pubFlips int64
	fpTests, fpTrue     int64
	fpEst               []float64
}

func newLadder() *ladder {
	return &ladder{rec: newRecorder(time.Now()), fam: hashing.MustNew(hashing.DefaultSpec), idx: make([]uint64, 8)}
}

func (l *ladder) begin(name string) int32 { return l.beginN(name, 1) }

func (l *ladder) beginN(name string, n int) int32 {
	if !l.on {
		return -1
	}
	return l.rec.beginN(name, int32(n))
}

func (l *ladder) end(id int32) {
	if id >= 0 {
		l.rec.end(id)
	}
}

// change records one document entering (add) or leaving a cache: the
// directory update the proxy's callbacks make, the same change on a
// standalone counting filter, and the hashing it needs.
func (l *ladder) change(dir *core.Directory, cf *bloom.CountingFilter, key string, add bool) {
	sp := l.begin(spanDirectoryChange)
	if add {
		dir.Insert(key)
	} else {
		dir.Remove(key)
	}
	l.end(sp)
	if add {
		sp = l.begin(spanCountingAdd)
		l.flipBuf = cf.Add(key, l.flipBuf[:0])
	} else {
		sp = l.begin(spanCountingRemove)
		l.flipBuf = cf.Remove(key, l.flipBuf[:0])
	}
	l.end(sp)
	l.hash(key, cf.Size())
	if l.on {
		l.changes++
		l.flips += int64(len(l.flipBuf))
	}
}

func (l *ladder) hash(key string, m uint64) {
	sp := l.begin(spanIndexes)
	_, _ = l.fam.IndexesInto(l.idx, key, m) // idx holds FunctionNum indexes; m > 0
	l.end(sp)
}

func (l *ladder) get(c *lru.Cache, key string) (lru.Entry, bool) {
	sp := l.begin(spanLRUGet)
	e, ok := c.Get(key)
	l.end(sp)
	if l.on {
		l.gets++
		if ok {
			l.getHits++
		}
	}
	return e, ok
}

func (l *ladder) put(c *lru.Cache, e lru.Entry) {
	sp := l.begin(spanLRUPut)
	c.Put(e)
	l.end(sp)
	if l.on {
		l.puts++
	}
}

// falsePositives tests cf with up to ladderFPProbes keys the cache does not
// hold, next to the (fill)^k estimate for the same filter.
func (l *ladder) falsePositives(cf *bloom.CountingFilter, c *lru.Cache, keys []string) {
	n := 0
	for _, k := range keys {
		if n == ladderFPProbes {
			break
		}
		if c.Contains(k) {
			continue
		}
		n++
		l.fpTests++
		if cf.Test(k) {
			l.fpTrue++
		}
	}
	l.fpEst = append(l.fpEst, math.Pow(cf.FillRatio(), float64(cf.Spec().FunctionNum)))
}

// layerSpans maps span names to per-layer metrics: the mean self time per
// call, scaled to the metric's unit.
var layerSpans = []struct {
	span, metric string
	scale        float64 // nanoseconds per unit
}{
	{spanIndexes, "hashing.indexes_ns", 1},
	{spanBloomTest, "bloom.test_ns", 1},
	{spanCountingAdd, "bloom.counting_add_ns", 1},
	{spanCountingRemove, "bloom.counting_remove_ns", 1},
	{spanLRUGet, "lru.get_ns", 1},
	{spanLRUPut, "lru.put_ns", 1},
	{spanCandidates, "core.candidates_ns", 1},
	{spanLookup, "core.lookup_us", 1e3},
	{spanDirectoryChange, "core.directory_change_ns", 1},
	{spanPublish, "core.publish_us", 1e3},
	{spanApplyUpdate, "core.apply_update_us", 1e3},
	{spanQueryEncode, "icp.query_encode_ns", 1},
	{spanQueryDecode, "icp.query_decode_ns", 1},
	{spanQueryRTT, "icp.query_rtt_us", 1e3},
	{spanDirUpdateEncode, "icp.dirupdate_encode_ns", 1},
	{spanDirUpdateDecode, "icp.dirupdate_decode_ns", 1},
	{spanSiblingFetch, "httpproxy.sibling_fetch_us", 1e3},
	{spanOriginFetch, "httpproxy.origin_fetch_us", 1e3},
}

// report adds the ladder's per-layer metrics. Every workload's ladder
// reaches every layer, so a span or count it lacks fails the run.
func (l *ladder) report(res *result) error {
	times := aggregate(l.rec)
	for _, ls := range layerSpans {
		t := times[ls.span]
		if t.calls == 0 {
			return fmt.Errorf("layer ladder made no %s call", ls.span)
		}
		res.addLayer(ls.metric, t.meanNS()/ls.scale, fmt.Sprintf("%d calls", t.calls))
	}
	for _, c := range []struct {
		what string
		n    int64
	}{{"change", l.changes}, {"publication", l.publishes}, {"false-positive probe", l.fpTests}, {"put", l.puts}, {"get", l.gets}} {
		if c.n == 0 {
			return fmt.Errorf("layer ladder made no %s", c.what)
		}
	}
	res.addLayer("bloom.flips_per_change", float64(l.flips)/float64(l.changes), fmt.Sprintf("%d changes", l.changes))
	res.addLayer("bloom.false_positive_ratio", float64(l.fpTrue)/float64(l.fpTests), fmt.Sprintf("%d of %d probes", l.fpTrue, l.fpTests))
	res.addLayer("bloom.false_positive_est", mean(l.fpEst), fmt.Sprintf("mean over %d filters", len(l.fpEst)))
	res.addLayer("lru.evictions_per_put", float64(l.evictions)/float64(l.puts), fmt.Sprintf("%d puts", l.puts))
	res.addLayer("lru.hit_ratio", float64(l.getHits)/float64(l.gets), fmt.Sprintf("%d gets", l.gets))
	res.addLayer("core.flips_per_publish", float64(l.pubFlips)/float64(l.publishes), fmt.Sprintf("%d publications", l.publishes))
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayConfig configures a replay's proxies as the workload configures
// its proxies (or the simulator its proxy groups).
type replayConfig struct {
	proxies    int
	cacheBytes int64
	shards     int // lru shards; 0 for lru's default, as the live proxies use
	directory  core.DirectoryConfig
	// minFlips is how many flips must be pending before a proxy publishes
	// past its threshold: the live proxies wait for a full DIRUPDATE, the
	// simulator publishes at the threshold alone.
	minFlips int
}

// replay is the in-memory half of a layer ladder. It holds one cache,
// directory, standalone counting filter tracking the same keys, and peer
// table per proxy; replica[j] is the published filter of proxy j as every
// peer holds it.
type replay struct {
	*ladder
	cfg     replayConfig
	caches  []*lru.Cache
	dirs    []*core.Directory
	cfs     []*bloom.CountingFilter
	peers   []*core.PeerTable
	replica []*bloom.Filter
	dec     icp.Decoder
	buf     []byte
	reqNum  uint32
}

func newReplay(l *ladder, cfg replayConfig) (*replay, error) {
	rp := &replay{ladder: l, cfg: cfg}
	for i := 0; i < cfg.proxies; i++ {
		dir, err := core.NewDirectory(cfg.directory)
		if err != nil {
			return nil, err
		}
		cf, err := bloom.NewCountingFilter(dir.Bits(), 4, dir.Spec())
		if err != nil {
			return nil, err
		}
		f, err := bloom.NewFilter(dir.Bits(), dir.Spec())
		if err != nil {
			return nil, err
		}
		c, err := lru.NewCache(lru.Config{
			Capacity: cfg.cacheBytes,
			Shards:   cfg.shards,
			OnInsert: func(e lru.Entry) { l.change(dir, cf, e.Key, true) },
			OnEvict: func(e lru.Entry, ev lru.Event) {
				if ev == lru.EvictUpdated {
					return // the insert of the new version follows
				}
				if ev == lru.EvictCapacity && l.on {
					l.evictions++
				}
				l.change(dir, cf, e.Key, false)
			},
		})
		if err != nil {
			return nil, err
		}
		rp.caches = append(rp.caches, c)
		rp.dirs = append(rp.dirs, dir)
		rp.cfs = append(rp.cfs, cf)
		rp.peers = append(rp.peers, core.NewPeerTable())
		rp.replica = append(rp.replica, f)
	}
	return rp, nil
}

// request replays one request to proxy i: the local lookup; on a miss (or
// a stale version) the summary probes and the ICP query's encoding; with a
// single-copy holder other than i, that holder's cache-only lookup; else
// the insert of the origin's copy and any publication it triggers.
func (rp *replay) request(i int, key string, size, version int64, holder int) {
	if e, ok := rp.get(rp.caches[i], key); ok && e.Version == version {
		return
	}
	rp.hash(key, rp.dirs[i].Bits()) // the probe indexes of the local miss
	sp := rp.begin(spanCandidates)
	rp.peers[i].Candidates(key)
	rp.end(sp)
	sp = rp.beginN(spanBloomTest, len(rp.replica)-1)
	for j, f := range rp.replica {
		if j != i {
			f.Test(key)
		}
	}
	rp.end(sp)
	rp.reqNum++
	sp = rp.begin(spanQueryEncode)
	rp.buf, _ = icp.NewQuery(rp.reqNum, key).Append(rp.buf[:0]) // a query for a workload URL always fits a datagram
	rp.end(sp)
	sp = rp.begin(spanQueryDecode)
	_, _ = rp.dec.Decode(rp.buf) // decoding what Append just produced
	rp.end(sp)
	if holder >= 0 && holder != i {
		if _, ok := rp.get(rp.caches[holder], key); ok {
			return
		}
	}
	rp.put(rp.caches[i], lru.Entry{Key: key, Size: size, Version: version})
	if dir := rp.dirs[i]; dir.ShouldPublish() && dir.PendingFlips() >= rp.cfg.minFlips {
		rp.publish(i)
	}
}

// publish drains proxy i's directory into DIRUPDATEs, encodes each, and has
// every peer decode and apply it.
func (rp *replay) publish(i int) {
	dir := rp.dirs[i]
	sp := rp.begin(spanPublish)
	flips := dir.Drain()
	msgs := icp.SplitUpdate(rp.reqNum, dir.Spec(), uint32(dir.Bits()), flips, core.DefaultMaxFlipsPerUpdate)
	rp.end(sp)
	if rp.on {
		rp.publishes++
		rp.pubFlips += int64(len(flips))
	}
	rp.reqNum += uint32(len(msgs))
	if len(flips) > 0 {
		if err := rp.replica[i].Apply(flips); err != nil {
			panic(fmt.Sprintf("replica %d: %v", i, err)) // flips come from a same-geometry filter
		}
	}
	id := fmt.Sprintf("proxy%d", i)
	for _, msg := range msgs {
		sp := rp.begin(spanDirUpdateEncode)
		buf, err := msg.Append(rp.buf[:0])
		rp.end(sp)
		if err != nil {
			panic(fmt.Sprintf("encode DIRUPDATE: %v", err)) // SplitUpdate sizes messages to fit
		}
		rp.buf = buf
		for j, pt := range rp.peers {
			if j == i {
				continue
			}
			sp := rp.begin(spanDirUpdateDecode)
			dm, err := rp.dec.Decode(rp.buf)
			rp.end(sp)
			if err != nil {
				panic(fmt.Sprintf("decode DIRUPDATE: %v", err))
			}
			sp = rp.begin(spanApplyUpdate)
			err = pt.ApplyUpdate(id, dm.Update, false)
			rp.end(sp)
			if err != nil {
				panic(fmt.Sprintf("apply DIRUPDATE: %v", err))
			}
		}
	}
}

// probeFalsePositives measures every proxy's standalone counting filter
// with keys its cache does not hold.
func (rp *replay) probeFalsePositives(keys []string) {
	for i := range rp.cfs {
		rp.falsePositives(rp.cfs[i], rp.caches[i], keys)
	}
}

// clear removes every cached document, as a cache emptied at shutdown
// does: each leaves the directory and the counting filter. It is the one
// replayed step outside the workload's own mix, and it gives hit_mix,
// whose caches never evict, its counting-filter removals.
func (rp *replay) clear() {
	for i, c := range rp.caches {
		for _, k := range c.Keys() {
			rp.change(rp.dirs[i], rp.cfs[i], k, false)
		}
	}
}

// runMeshLadder replays mesh m's fill, warm-up and ladder lists through
// lru, core, bloom, hashing and icp, configured as the live proxies are,
// then drives core.Node.Lookup, the ICP round trip and the HTTP hops
// against the live mesh's public endpoints. With record false the
// in-memory replay only builds the summaries the live round needs.
func runMeshLadder(l *ladder, m *mesh, record bool) error {
	rp, err := newReplay(l, replayConfig{
		proxies:    meshProxies,
		cacheBytes: m.spec.cacheBytes,
		directory:  m.spec.directory(),
		minFlips:   core.DefaultMaxFlipsPerUpdate,
	})
	if err != nil {
		return err
	}
	in := m.in
	holder := func(r meshReq) int {
		if m.spec.singleCopy {
			return int(in.Docs[r.Doc].Owner)
		}
		return -1
	}
	send := func(r meshReq) {
		rp.request(int(r.Proxy), m.target(r.Doc), in.Docs[r.Doc].Size, 0, holder(r))
	}
	// The set-up the live proxies went through, ending in a publication
	// from every proxy as the live set-up converges, then the ladder list.
	l.on = record
	for p, docs := range in.Fill {
		for _, d := range docs {
			send(meshReq{Proxy: uint8(p), Doc: d})
		}
	}
	for _, r := range in.Warm {
		send(r)
	}
	for i := range rp.dirs {
		rp.publish(i)
	}
	for _, r := range in.Ladder {
		send(r)
	}
	if record {
		probes := make([]string, 0, 2*ladderFPProbes)
		for id := range in.Docs {
			if len(probes) == cap(probes) {
				break
			}
			probes = append(probes, m.target(uint32(id)))
		}
		rp.probeFalsePositives(probes)
	}
	l.on = true
	if err := live(l, m, rp.dirs); err != nil {
		return err
	}
	l.on = record
	rp.clear()
	return nil
}

// live drives the live mesh's public endpoints for the first ladderLiveOps
// requests of the ladder list that miss locally. Each round: a
// core.Node.Lookup from a node holding dirs as the summaries of the live
// proxies' ICP addresses; one ICP query to a live proxy — the owner of a
// single-copy document, which answers HIT, else the next proxy, which
// answers MISS; the origin hop a miss takes; and the sibling's cache-only
// hop a remote hit takes, from the owner, which in simple sharing first
// loads the document through its front end (untimed).
func live(l *ladder, m *mesh, dirs []*core.Directory) error {
	node, err := core.NewNode(core.NodeConfig{
		ListenAddr:   "127.0.0.1:0",
		Directory:    m.spec.directory(),
		HasDocument:  func(string) bool { return false },
		QueryTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	for j, p := range m.proxies {
		dir := dirs[j]
		u := icp.DirUpdate{Spec: dir.Spec(), Bits: uint32(dir.Bits()), Flips: dir.SnapshotFlips()}
		if err := node.PeerSummaries().ApplyUpdate(p.ICPAddr().String(), &u, true); err != nil {
			return err
		}
	}
	conn, err := icp.Listen("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.Start()
	f := newFetcher()
	ctx := context.Background()
	ops := 0
	for _, r := range m.in.Ladder {
		if ops == ladderLiveOps {
			break
		}
		d := m.in.Docs[r.Doc]
		if d.Owner == r.Proxy && m.spec.singleCopy {
			continue // a local hit reaches no other layer
		}
		ops++
		key := m.target(r.Doc)
		sp := l.begin(spanLookup)
		_, _, err := node.Lookup(ctx, key)
		l.end(sp)
		if err != nil {
			return fmt.Errorf("lookup %s: %w", key, err)
		}
		to, want := int(d.Owner), icp.OpHit
		if !m.spec.singleCopy {
			to, want = (to+1)%meshProxies, icp.OpMiss
		}
		sp = l.begin(spanQueryRTT)
		reply, err := conn.Query(ctx, m.proxies[to].ICPAddr(), key)
		l.end(sp)
		if err != nil {
			return fmt.Errorf("ICP query %s: %w", key, err)
		}
		if reply.Op != want {
			return fmt.Errorf("ICP query %s to proxy %d: got %v, want %v", key, to, reply.Op, want)
		}
		sp = l.begin(spanOriginFetch)
		err = f.get(m.direct, key, d.Size)
		l.end(sp)
		if err != nil {
			return fmt.Errorf("origin fetch %s: %w", key, err)
		}
		if !m.spec.singleCopy {
			if err := f.get(m.via[d.Owner], key, d.Size); err != nil {
				return fmt.Errorf("load %s through proxy %d: %w", key, d.Owner, err)
			}
		}
		u := m.proxies[d.Owner].URL() + httpproxy.CacheOnlyPath + "?url=" + url.QueryEscape(key)
		sp = l.begin(spanSiblingFetch)
		err = f.get(m.direct, u, d.Size)
		l.end(sp)
		if err != nil {
			return fmt.Errorf("sibling fetch %s: %w", key, err)
		}
	}
	if ops == 0 {
		return fmt.Errorf("the ladder list has no request that misses locally")
	}
	return nil
}

// runSimLadder replays the first ladderSimRequests requests of trace_sim's
// trace through lru, core, bloom, hashing and icp with the simulator's
// configuration: one exact-LRU cache per proxy group, its directory and
// counting filter fed by the cache's callbacks, summaries published at the
// update threshold as DIRUPDATEs every other group applies, and every local
// miss probing the other groups' summaries. The live round then replays
// the start of the trace against a mesh of 4 proxies with the simulator's
// cache size.
func runSimLadder(l *ladder, w *simWorkload) error {
	rp, err := newReplay(l, replayConfig{
		proxies:    w.cfg.NumProxies,
		cacheBytes: w.cfg.CacheBytes,
		shards:     1,
		// Sized as sim.Run sizes its filters: one expected document per
		// 8 KB (the simulator's default AvgDocBytes).
		directory: core.DirectoryConfig{
			ExpectedDocs:    uint64(w.cfg.CacheBytes / 8192),
			LoadFactor:      w.cfg.Summary.LoadFactor,
			UpdateThreshold: w.cfg.Summary.UpdateThreshold,
		},
	})
	if err != nil {
		return err
	}
	reqs := w.reqs
	if len(reqs) > ladderSimRequests {
		reqs = reqs[:ladderSimRequests]
	}
	l.on = true
	for _, r := range reqs {
		rp.request(r.Group(w.cfg.NumProxies), r.URL, r.Size, r.Version, -1)
	}
	urls := make([]string, len(reqs))
	for i, r := range reqs {
		urls[i] = r.URL
	}
	rp.probeFalsePositives(urls)
	rp.clear()

	m, err := startMesh(meshSpec{cacheBytes: w.cfg.CacheBytes}, traceMeshInputs(w.reqs))
	if err != nil {
		return err
	}
	defer m.close()
	return runMeshLadder(l, m, false)
}
