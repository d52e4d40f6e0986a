package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"ulmt/internal/core"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile p in [50, 99]
// that still has at least ten samples beyond it, by the nearest-rank
// rule (the p-th percentile is the ceil(p*n/100)-th smallest sample),
// with p. Below 20 samples no percentile qualifies and the median is
// returned as p50.
func tailPercentile(xs []float64) (float64, int) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], p
		}
	}
	return median(xs), 50
}

// counts are per-layer counts read from the Results of one request.
// They are deterministic: every request of a run reads the same.
type counts struct {
	events, cycles, busBusy, busTransfers uint64
	l1Misses, l2Misses, l2PrefetchHits    uint64
	dramAccesses, dramRowHits             uint64
	filterDropped, q2Drops, crossMatched  uint64
	memprocMisses, memprocInstructions    uint64
	pushes, pushHits, shardCross          uint64
	forked, scratch, cacheMisses          uint64
}

// add folds in one run's per-layer counts. Events, cycles and bus
// occupancy are machine-wide, so the caller adds them.
func (c *counts) add(r core.Results) {
	c.l1Misses += r.L1.Misses
	c.l2Misses += r.L2.Misses
	c.l2PrefetchHits += r.L2.PrefetchHits
	c.dramAccesses += r.DRAM.Accesses
	c.dramRowHits += r.DRAM.RowHits
	c.filterDropped += r.FilterDropped
	c.q2Drops += r.Q2Drops
	c.crossMatched += r.CrossMatchedDemand + r.CrossMatchedPush
	c.memprocMisses += r.ULMT.MissesProcessed
	c.memprocInstructions += r.ULMT.Instructions
	c.pushes += r.PushesToL2
	c.pushHits += r.Outcomes.Hits
}

// addMachine folds in one single-core machine's run: its counts plus
// the machine-wide event, cycle and bus totals.
func (c *counts) addMachine(r core.Results) {
	c.add(r)
	c.events += r.EventsFired
	c.cycles += uint64(r.Cycles)
	c.busBusy += uint64(r.Bus.BusyCycles)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// set reports the counts of a request that retired ops simulated ops.
func (c counts) set(rep *report, ops uint64) {
	rep.set("sim.events_per_op", ratio(c.events, ops), "events/op")
	rep.set("cpu.ops_retired", float64(ops), "count")
	rep.set("cache.l1_misses", float64(c.l1Misses), "count")
	rep.set("cache.l2_misses", float64(c.l2Misses), "count")
	rep.set("cache.l2_misses_per_kop", 1000*ratio(c.l2Misses, ops), "count/kop")
	rep.set("cache.l2_prefetch_hits", float64(c.l2PrefetchHits), "count")
	rep.set("bus.transfers", float64(c.busTransfers), "count")
	rep.set("bus.busy_cycles", float64(c.busBusy), "cycles")
	rep.set("bus.utilization", ratio(c.busBusy, c.cycles), "ratio")
	rep.set("dram.accesses", float64(c.dramAccesses), "count")
	rep.set("dram.row_hit_ratio", ratio(c.dramRowHits, c.dramAccesses), "ratio")
	rep.set("queue.filter_dropped", float64(c.filterDropped), "count")
	rep.set("queue.q2_drops", float64(c.q2Drops), "count")
	rep.set("queue.cross_matched", float64(c.crossMatched), "count")
	rep.set("memproc.misses_processed", float64(c.memprocMisses), "count")
	rep.set("memproc.instructions", float64(c.memprocInstructions), "count")
	rep.set("prefetch.pushes", float64(c.pushes), "count")
	rep.set("prefetch.pushes_per_kop", 1000*ratio(c.pushes, ops), "count/kop")
	rep.set("prefetch.useful_ratio", ratio(c.pushHits, c.pushes), "ratio")
	rep.set("core.shard_cross_emits", float64(c.shardCross), "count")
	rep.set("experiment.forked_runs", float64(c.forked), "count")
	rep.set("experiment.scratch_runs", float64(c.scratch), "count")
	rep.set("experiment.forked_share", ratio(c.forked, c.forked+c.scratch), "ratio")
	rep.set("experiment.cache_misses", float64(c.cacheMisses), "count")
}

// heapWatch samples the live heap — the bytes the last GC marked
// reachable — every few milliseconds and keeps its peak. Live bytes,
// unlike total heap bytes, leave out garbage awaiting collection, so
// the peak does not move with where GC cycles happen to fall.
// runtime/metrics reads do not stop the world.
type heapWatch struct {
	stopCh, done chan struct{}
	peak         uint64
}

const heapLive = "/gc/heap/live:bytes"

func watchHeap() *heapWatch {
	h := &heapWatch{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLive}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak
}
