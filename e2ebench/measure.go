package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// stealTick is the unit of /proc/stat's counters (USER_HZ, 100 on
// Linux).
const stealTick = 10 * time.Millisecond

// readSteal returns each CPU's cumulative hypervisor steal time from
// /proc/stat: time the virtual CPU wanted to run while the host ran
// something else. It returns nil where /proc/stat is unavailable.
func readSteal() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		v, err := strconv.ParseInt(f[8], 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stopwatch times an interval net of hypervisor steal. On a shared
// host the steal during one ladder cell reached 2.1 s of 7.0 s; it is
// time the program did not run, so it is taken out. Counting the
// largest per-CPU steal is exact when the stolen CPU was the one
// running the interval's critical path.
type stopwatch struct {
	start time.Time
	steal []int64
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), steal: readSteal()} }

// stop returns the interval's wall time net of steal, and the steal.
func (w stopwatch) stop() (net, stolen time.Duration) {
	wall := time.Since(w.start)
	now := readSteal()
	if len(now) != len(w.steal) {
		return wall, 0
	}
	var most int64
	for i := range now {
		most = max(most, now[i]-w.steal[i])
	}
	stolen = time.Duration(most) * stealTick
	if stolen >= wall {
		return wall, 0 // tick granularity on a short interval
	}
	return wall - stolen, stolen
}

// heapWatch keeps the largest live heap that any collection marked
// while it ran, solver working sets inside a cell included. A
// finalizer on a sentinel object runs after every GC cycle, reads
// /gc/heap/live:bytes and arms a new sentinel for the next cycle.
type heapWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

// gcSentinel is large enough to stay out of the tiny allocator, whose
// shared blocks would delay its finalizer.
type gcSentinel struct{ _ [64]byte }

func watchHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if !h.done.Load() {
			h.sample()
			h.arm()
		}
	})
}

func (h *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// stop collects once more, so the state held at the end counts too,
// ends the watch and returns the peak in bytes.
func (h *heapWatch) stop() uint64 {
	runtime.GC()
	h.sample()
	h.done.Store(true)
	return h.peak.Load()
}

// memDelta measures the GC cycles and allocated bytes of f.
func memDelta(f func()) (gcCycles float64, allocMB float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.NumGC - before.NumGC), float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
