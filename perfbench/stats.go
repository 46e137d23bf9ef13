package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minAbove is how many samples must lie above a reported percentile. A
// percentile with fewer is the largest few samples renamed, so it is
// refused rather than reported.
const minAbove = 10

// nearestRank returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p·n samples at or
// below it, i.e. sorted[ceil(p·n)-1]. above is the number of samples
// strictly after that rank. ok is false when fewer than minAbove samples
// lie above it.
func nearestRank(sorted []int64, p float64) (v int64, above int, ok bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p > 1 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	above = n - rank
	return sorted[rank-1], above, above >= minAbove
}

// latencies collects per-request durations in nanoseconds.
type latencies []int64

// sort sorts l in place and returns it.
func (l latencies) sort() latencies {
	slices.Sort(l)
	return l
}

// percentileUS returns the nearest-rank p-quantile in microseconds, or an
// error naming the metric when the sample cannot support it.
func (l latencies) percentileUS(name string, p float64) (float64, error) {
	v, above, ok := nearestRank(l, p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave %d above the p%g rank, need %d", name, len(l), above, 100*p, minAbove)
	}
	return float64(v) / 1e3, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It is used across windows and set-up repetitions,
// where the count is small and no percentile rule applies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// usage is a process resource sample.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func sampleUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for an invalid pointer, which this
	// call cannot pass.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: time.Now(), cpu: cpu}
}

// startPeakRSS returns the heap's free pages to the system and restarts the
// kernel's count of the process's peak resident set (VmHWM), so peakRSSMB
// covers only what follows: the timed phase, not the set-ups repeated
// before it or the garbage they left.
func startPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set size since
// startPeakRSS, in MiB, from VmHWM in /proc/self/status (reported in kB).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
