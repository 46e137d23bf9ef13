package main

import (
	"fmt"
	"runtime"
	"time"

	"summarycache/internal/sim"
	"summarycache/internal/trace"
	"summarycache/internal/tracegen"
)

// shippedSeed is the seed the benchmark ships with; trace_sim's results for
// it are pinned in pinnedSim.
const shippedSeed = 1

// simOutcome is the part of a sim.Result the benchmark pins and compares
// between passes.
type simOutcome struct {
	Requests, LocalHits, RemoteHits, FalseHits, FalseMisses uint64
	RemoteStaleHits, QueryMessages, UpdateMessages          uint64
	QueryBytes, UpdateBytes, UpdateEvents                   uint64
}

func outcomeOf(r sim.Result) simOutcome {
	return simOutcome{
		Requests: r.Requests, LocalHits: r.LocalHits, RemoteHits: r.RemoteHits,
		FalseHits: r.FalseHits, FalseMisses: r.FalseMisses, RemoteStaleHits: r.RemoteStaleHits,
		QueryMessages: r.QueryMessages, UpdateMessages: r.UpdateMessages,
		QueryBytes: r.QueryBytes, UpdateBytes: r.UpdateBytes, UpdateEvents: r.UpdateEvents,
	}
}

// pinnedSim is sim.Run's outcome on the DEC trace generated from
// shippedSeed under trace_sim's configuration. A change to the simulator,
// the trace generator or the layers beneath them that alters any of these
// counts fails the benchmark on the shipped seed.
var pinnedSim = simOutcome{
	Requests: 200000, LocalHits: 50434, RemoteHits: 27141, FalseHits: 22172, FalseMisses: 65,
	RemoteStaleHits: 293, QueryMessages: 114072, UpdateMessages: 354450,
	QueryBytes: 6188871, UpdateBytes: 56745660, UpdateEvents: 23630,
}

// simWorkload is trace_sim's input: a DEC-preset trace at scale 1.0 and the
// simulator configuration of the paper's headline Bloom-summary runs.
type simWorkload struct {
	reqs []trace.Request
	cfg  sim.Config
}

// setUpSim generates the trace from seed and sizes every proxy cache at 10%
// of the trace's infinite cache size split over the proxies — the set-up a
// cmd/simulate user pays on every run.
func setUpSim(seed int64) (*simWorkload, error) {
	tc, err := tracegen.PresetConfig(tracegen.DEC, 1.0)
	if err != nil {
		return nil, err
	}
	tc.Seed = seed
	reqs, err := tracegen.Generate(tc)
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	st := trace.ComputeStats(tc.Name, reqs)
	per := int64(float64(st.InfiniteCacheSize) * 0.10 / float64(tc.Groups))
	return &simWorkload{
		reqs: reqs,
		cfg: sim.Config{
			NumProxies: tc.Groups,
			CacheBytes: per,
			Scheme:     sim.SimpleSharing,
			Summary: sim.SummaryConfig{
				Kind:            sim.Bloom,
				LoadFactor:      16,
				UpdateThreshold: 0.01,
			},
		},
	}, nil
}

// simPass is one timed sim.Run pass.
type simPass struct {
	wall, cpu time.Duration
	outcome   simOutcome
}

// simPhase is a run of back-to-back passes.
type simPhase struct {
	passes []simPass
	mem    memDelta
	spans  *recorder // nil when untraced
}

// runSim runs whole sim.Run passes until the budget is spent (at least
// minPasses). When traced, each pass is recorded as a span.
func (w *simWorkload) runSim(budget time.Duration, minPasses int, traced bool) (*simPhase, error) {
	runtime.GC()
	ph := &simPhase{}
	memBefore := readMem()
	start := sampleUsage()
	if traced {
		ph.spans = newRecorder(start.wall)
	}
	prev := start
	for len(ph.passes) < minPasses || prev.wall.Sub(start.wall) < budget {
		var sp int32
		if ph.spans != nil {
			sp = ph.spans.begin(spanSimRun)
		}
		res, err := sim.Run(w.cfg, w.reqs)
		if ph.spans != nil {
			ph.spans.end(sp)
		}
		if err != nil {
			return nil, fmt.Errorf("sim.Run: %w", err)
		}
		now := sampleUsage()
		ph.passes = append(ph.passes, simPass{wall: now.wall.Sub(prev.wall), cpu: now.cpu - prev.cpu, outcome: outcomeOf(res)})
		prev = now
	}
	ph.mem = readMem().sub(memBefore)
	return ph, nil
}

// check verifies that every pass produced the same outcome and, for the
// shipped seed, the pinned one.
func (ph *simPhase) check(seed int64) error {
	first := ph.passes[0].outcome
	for i, p := range ph.passes[1:] {
		if p.outcome != first {
			return fmt.Errorf("pass %d: %+v differs from pass 0: %+v", i+1, p.outcome, first)
		}
	}
	if seed == shippedSeed && first != pinnedSim {
		return fmt.Errorf("seed %d: %+v, pinned %+v", seed, first, pinnedSim)
	}
	return nil
}

func (ph *simPhase) requests() int64 {
	var n int64
	for _, p := range ph.passes {
		n += int64(p.outcome.Requests)
	}
	return n
}

// throughput is the median over passes of simulated requests per second.
func (ph *simPhase) throughput() float64 {
	xs := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		xs[i] = float64(p.outcome.Requests) / p.wall.Seconds()
	}
	return median(xs)
}

// cpuPerReq is the median over passes of process CPU per simulated request,
// in microseconds.
func (ph *simPhase) cpuPerReq() float64 {
	xs := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		xs[i] = float64(p.cpu.Nanoseconds()) / 1e3 / float64(p.outcome.Requests)
	}
	return median(xs)
}
