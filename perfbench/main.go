// Command perfbench is the repository benchmark: it composes a durable
// DUFS deployment from the public constructors, drives DUFS vfs ops on
// one named workload at steady state and checks the results.
//
//	perfbench --workload churn|lookup-2shard --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the deployment up five times (setup_s is the
// median), runs the workload's warm-up, measures for S seconds and
// reports the end-to-end metrics, each the median over the run's
// one-second windows. With --trace 1 it sets up once with a probe on
// every layer seam, measures S/2 seconds with the probes off and S/2
// with them recording, and reports the per-layer metrics plus the gap
// between the two halves as the tracing overhead. Report lines come
// first; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. See LAYERS.md for which
// metric each layer should move on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	setupRepeats = 5       // set-ups per untraced run; setup_s is their median
	spanCapacity = 8 << 20 // span arena of the traced run (192 MiB, mapped; touched as used)
	pollEvery    = time.Millisecond
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "churn or lookup-2shard")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for data dirs and span dumps")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	root := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	mounts := min(maxMounts, runtime.NumCPU())
	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"transport": "inproc", "injected_delay_us": 0,
		"shards": w.shards(), "voters": voters, "sync_every": syncEvery,
		"max_log_entries": maxLogEntries, "backends": numBackends, "mounts": mounts,
		"loop": "closed", "callers_per_mount": w.callers(), "warmup_s": w.warmup().Seconds(),
		"data_dir_fs": fsType(root),
	}
	envLine, _ := json.Marshal(env)
	fmt.Println("env", string(envLine))

	var res *result
	if *trace == 0 {
		res, err = untraced(w, root, mounts, time.Duration(*seconds)*time.Second)
	} else {
		res, err = traced(w, root, mounts, time.Duration(*seconds)*time.Second, filepath.Join(*work, "spans-"+*name+".bin"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return res.print()
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	problem           string
	names             []string
	metrics           map[string]metric
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

func (r *result) add(name string, v float64, unit string, samples int) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

func (r *result) print() int {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Printf("metric %-34s %14.4f %-12s samples=%d\n", n, m.Value, m.Unit, m.samples)
	}
	if r.problem != "" {
		fmt.Println("problem", r.problem)
	}
	out, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// setup boots a deployment under dir and prepares the workload's
// namespace, returning how long both took.
func setup(w workload, name, dir string, mounts int, t *tracer) (*deployment, float64, error) {
	start := time.Now()
	d, err := boot(name, dir, w.shards(), mounts, t)
	if err != nil {
		return nil, 0, err
	}
	if err := w.prepare(d); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("preparing the namespace: %w", err)
	}
	return d, time.Since(start).Seconds(), nil
}

// untraced measures the end-to-end metrics.
func untraced(w workload, root string, mounts int, dur time.Duration) (*result, error) {
	var d *deployment
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		dir := filepath.Join(root, fmt.Sprintf("setup%d", k))
		var secs float64
		var err error
		if d, secs, err = setup(w, fmt.Sprintf("k%d", k), dir, mounts, nil); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		if k < setupRepeats-1 {
			d.stop()
			os.RemoveAll(dir)
		}
	}
	defer d.stop()
	w.run(d, w.warmup(), nil)
	runtime.GC()
	heap := startHeapPeak()
	s := w.run(d, dur, nil)
	peak := heap.stop()

	res := &result{attempted: s.attempted, failed: s.failed}
	res.judge(s, w.check(d))
	// Each gated figure is the median over the run's one-second windows
	// of that window's figure: a burst of load from another tenant of the
	// machine that covers a few windows moves it less than it moves a
	// figure pooled over the whole run.
	var opsW, latW, readW, writeW []float64
	for k := 0; k < len(s.wins) && time.Duration(k+1)*windowLen <= dur; k++ {
		win := s.wins[k]
		all := sortedCopy(win.read, win.write)
		opsW = append(opsW, float64(len(all))/windowLen.Seconds())
		latW = appendP50(latW, all)
		readW = appendP50(readW, sortedCopy(win.read))
		writeW = appendP50(writeW, sortedCopy(win.write))
	}
	all, reads, writes := sortedCopy(s.lat(false), s.lat(true)), sortedCopy(s.lat(false)), sortedCopy(s.lat(true))
	res.add("ops_per_s", median(opsW), "1/s", len(all))
	res.add("lat_p50_us", median(latW), "us", len(all))
	res.add("read_p50_us", median(readW), "us", len(reads))
	res.add("write_p50_us", median(writeW), "us", len(writes))
	res.add("setup_s", median(setups), "s", len(setups))
	fmt.Printf("info windows=%d of %s; pooled over the run: ops_per_s=%.1f lat_p50_us=%.3f read_p50_us=%.3f write_p50_us=%.3f\n",
		len(opsW), windowLen, float64(len(all))/s.elapsed.Seconds(),
		quantile(all, 0.5)/1e3, quantile(reads, 0.5)/1e3, quantile(writes, 0.5)/1e3)
	fmt.Printf("info error_frac=%.6f attempted=%d failed=%d wrong=%d peak_heap_mb=%.1f\n",
		float64(s.failed)/float64(max(s.attempted, 1)), s.attempted, s.failed, s.wrong, float64(peak)/(1<<20))
	// Tails are reported, not gated: on a shared disk they do not repeat
	// from run to run (see LAYERS.md).
	fmt.Printf("info lat_p99_us=%.1f read_p99_us=%.1f write_p99_us=%.1f lat_p999_us=%.1f\n",
		quantile(all, 0.99)/1e3, quantile(reads, 0.99)/1e3, quantile(writes, 0.99)/1e3, quantile(all, 0.999)/1e3)
	return res, nil
}

func (r *result) judge(s *sampler, checkErr error) {
	r.correct = s.wrong == 0 && checkErr == nil
	switch {
	case checkErr != nil:
		r.problem = "check: " + checkErr.Error()
	case s.firstBad != "":
		r.problem = s.firstBad
	}
}

// appendP50 appends the median of sorted, in µs, unless it is empty.
func appendP50(out []float64, sorted []int64) []float64 {
	if len(sorted) == 0 {
		return out
	}
	return append(out, quantile(sorted, 0.5)/1e3)
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// sortedCopy returns the values of every set in one sorted slice.
func sortedCopy(sets ...[]int64) []int64 {
	var out []int64
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapPeak samples the heap's object bytes (live and not yet swept)
// every 10 ms while the load runs and keeps the largest.
type heapPeak struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// ---- traced run -----------------------------------------------------------

// traced measures the per-layer metrics.
func traced(w workload, root string, mounts int, dur time.Duration, spansPath string) (*result, error) {
	t := newTracer(spanCapacity, w.shards())
	d, _, err := setup(w, "t", filepath.Join(root, "setup"), mounts, t)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	w.run(d, w.warmup(), t)
	half := dur / 2

	// Phase A: probes installed but not recording — the untraced
	// reference, and the runtime's own costs.
	runtime.GC()
	rtA := readRuntime()
	heap := startHeapPeak()
	a := w.run(d, half, t)
	peak := heap.stop()
	rtB := readRuntime()

	// Phase B: recording.
	runtime.GC()
	regs0 := zabTotals(d)
	leaders0 := d.leaders()
	poll := startPoller(d)
	if err := t.start(); err != nil {
		return nil, err
	}
	defer t.release()
	b := w.run(d, half, t)
	t.stop()
	gauges := poll.stop()
	regs1 := zabTotals(d)
	st := t.digest()

	all := &sampler{}
	all.merge(a)
	all.merge(b)
	res := &result{attempted: all.attempted, failed: all.failed}
	res.judge(all, w.check(d))

	ops := float64(max(st.ops, 1))
	writes := float64(max(st.writeOps, 1))
	perWrite := func(v float64) float64 {
		if st.writeOps == 0 {
			return 0
		}
		return v / writes
	}
	res.add("core.self_us_per_op", float64(st.selfNS)/ops/1e3, "us/op", int(st.ops))
	res.add("core.coord_calls_per_op", float64(st.count[kindCoordRead]+st.count[kindCoordWrite])/ops, "calls/op", int(st.ops))
	res.add("core.backend_calls_per_op", float64(st.count[kindBackend])/ops, "calls/op", int(st.ops))
	addSpanQuantiles(res, "coord.read", st.durs[kindCoordRead])
	addSpanQuantiles(res, "coord.write", st.durs[kindCoordWrite])
	var shardSum, shardMax int64
	for i := range t.shardCalls {
		c := t.shardCalls[i].Load()
		shardSum += c
		shardMax = max(shardMax, c)
	}
	res.add("shard.calls_per_op", float64(shardSum)/ops, "calls/op", int(st.ops))
	share := 0.0
	if shardSum > 0 {
		share = float64(shardMax) / float64(shardSum)
	}
	res.add("shard.max_share", share, "frac", int(shardSum))
	res.add("transport.client_msgs_per_op", float64(t.clientMsgs.Load())/ops, "msgs/op", int(t.clientMsgs.Load()))
	res.add("transport.client_bytes_per_op", float64(t.clientBytes.Load())/ops, "B/op", int(t.clientMsgs.Load()))
	res.add("transport.peer_msgs_per_write", perWrite(float64(t.peerMsgs.Load())), "msgs/write", int(t.peerMsgs.Load()))
	res.add("transport.peer_bytes_per_write", perWrite(float64(t.peerBytes.Load())), "B/write", int(t.peerMsgs.Load()))
	addSpanQuantiles(res, "server.handle", st.durs[kindServer])
	frames := regs1.frames - regs0.frames
	res.add("zab.txns_per_frame", float64(regs1.txns-regs0.txns)/float64(max(frames, 1)), "txns/frame", int(frames))
	res.add("zab.apply_queue_mean", gauges.queue, "frames", gauges.samples)
	res.add("zab.apply_workers_busy_mean", gauges.busy, "workers", gauges.samples)
	peer := sortedCopy(st.durs[kindPeer])
	res.add("zab.peer_handle_p50_us", quantile(peer, 0.5)/1e3, "us", len(peer))
	res.add("zab.leader_changes", float64(gauges.changes+changed(leaders0, gauges.first)), "count", gauges.samples)
	syncs := sortedCopy(st.durs[kindSync])
	var syncBusy int64
	for _, v := range syncs {
		syncBusy += v
	}
	engines := float64(len(d.ensembles) * voters)
	res.add("storage.syncs_per_write", perWrite(float64(len(syncs))), "syncs/write", len(syncs))
	res.add("storage.sync_p50_us", quantile(syncs, 0.5)/1e3, "us", len(syncs))
	res.add("storage.sync_p99_us", quantile(syncs, 0.99)/1e3, "us", len(syncs))
	res.add("storage.sync_busy_frac", float64(syncBusy)/(float64(b.elapsed)*engines), "frac", len(syncs))
	res.add("storage.append_bytes_per_write", perWrite(float64(t.appendBytes.Load())), "B/write", int(st.writeOps))
	res.add("storage.snapshots", float64(t.snapshots.Load()), "count", int(t.snapshots.Load()))
	be := sortedCopy(st.durs[kindBackend])
	res.add("backend.p50_us", quantile(be, 0.5)/1e3, "us", len(be))
	mkdirsPerCreate := 0.0
	if b.creates > 0 {
		mkdirsPerCreate = float64(t.mkdirs.Load()) / float64(b.creates)
	}
	res.add("backend.mkdirs_per_create", mkdirsPerCreate, "mkdirs/create", int(b.creates))
	aAll, bAll := sortedCopy(a.lat(false), a.lat(true)), sortedCopy(b.lat(false), b.lat(true))
	opsA := float64(len(aAll))
	res.add("runtime.alloc_bytes_per_op", float64(rtB.allocBytes-rtA.allocBytes)/max(opsA, 1), "B/op", int(opsA))
	res.add("runtime.gc_cpu_frac", (rtB.gcCPU-rtA.gcCPU)/max(rtB.totalCPU-rtA.totalCPU, 1e-9), "frac", int(rtB.gcs-rtA.gcs))
	pauses := rtB.pauses.sub(rtA.pauses)
	res.add("runtime.gc_pause_p99_us", pauses.quantile(0.99)*1e6, "us", int(pauses.total()))
	res.add("runtime.peak_heap_mb", float64(peak)/(1<<20), "MB", 1)
	// The end-to-end tails, from the untraced phase: recorded with every
	// traced run, but with no bound, as they do not repeat on a shared disk.
	aReads, aWrites := sortedCopy(a.lat(false)), sortedCopy(a.lat(true))
	res.add("e2e.lat_p99_us", quantile(aAll, 0.99)/1e3, "us", len(aAll))
	res.add("e2e.read_p99_us", quantile(aReads, 0.99)/1e3, "us", len(aReads))
	res.add("e2e.write_p99_us", quantile(aWrites, 0.99)/1e3, "us", len(aWrites))
	opsPerSA := float64(len(aAll)) / a.elapsed.Seconds()
	opsPerSB := float64(len(bAll)) / b.elapsed.Seconds()
	res.add("trace.overhead_ops_frac", 1-opsPerSB/opsPerSA, "frac", len(bAll))
	res.add("trace.overhead_p50_frac", quantile(bAll, 0.5)/quantile(aAll, 0.5)-1, "frac", len(bAll))
	spans := min(t.next.Load(), int64(len(t.spans)))
	res.add("trace.spans_dropped", float64(t.dropped.Load()), "count", int(spans))
	fmt.Printf("info spans=%d written to %s\n", spans, spansPath)
	if err := t.writeSpans(spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return res, nil
}

func addSpanQuantiles(r *result, prefix string, durs []int64) {
	s := sortedCopy(durs)
	r.add(prefix+"_p50_us", quantile(s, 0.5)/1e3, "us", len(s))
	r.add(prefix+"_p99_us", quantile(s, 0.99)/1e3, "us", len(s))
}

// zabCounts totals the proposer's batch distribution over every server.
type zabCounts struct{ frames, txns int64 }

func zabTotals(d *deployment) zabCounts {
	var c zabCounts
	for _, ens := range d.ensembles {
		for _, s := range ens.Servers {
			if s == nil {
				continue
			}
			dist := s.Metrics().Distribution("zab.proposer.batch_txns")
			c.frames += dist.Count()
			c.txns += dist.Sum()
		}
	}
	return c
}

// poller samples each shard leader's apply gauges and watches for
// leader changes.
type poller struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	out   pollResult
}

type pollResult struct {
	queue, busy float64
	samples     int
	changes     int
	first       []uint64
}

func startPoller(d *deployment) *poller {
	p := &poller{stopc: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		var prev []uint64
		var qSum, bSum int64
		var n int
		for {
			ls := d.leaders()
			if prev == nil {
				p.out.first = ls
			} else {
				p.out.changes += changed(prev, ls)
			}
			prev = ls
			for _, ens := range d.ensembles {
				if l := ens.Leader(); l != nil {
					qSum += l.Metrics().Gauge("zab.apply.queue_depth").Value()
					bSum += l.Metrics().Gauge("zab.apply.workers_busy").Value()
					n++
				}
			}
			select {
			case <-p.stopc:
				if n > 0 {
					p.out.queue, p.out.busy = float64(qSum)/float64(n), float64(bSum)/float64(n)
				}
				p.out.samples = n
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *poller) stop() pollResult {
	close(p.stopc)
	p.wg.Wait()
	return p.out
}

func changed(a, b []uint64) int {
	n := 0
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			n++
		}
	}
	return n
}

// runtimeStats is a snapshot of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocBytes      uint64
	gcs             uint64
	gcCPU, totalCPU float64
	pauses          hist
}

type hist struct {
	counts  []uint64
	buckets []float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcs:        s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		pauses:     hist{counts: append([]uint64(nil), h.Counts...), buckets: h.Buckets},
	}
}

func (h hist) sub(o hist) hist {
	out := hist{counts: make([]uint64, len(h.counts)), buckets: h.buckets}
	for i := range h.counts {
		out.counts[i] = h.counts[i] - o.counts[i]
	}
	return out
}

func (h hist) total() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// quantile returns the upper edge of the bucket holding quantile q.
func (h hist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if up := h.buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return h.buckets[i]
		}
	}
	return 0
}
