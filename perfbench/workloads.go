package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// workload is one traffic mix over a deployment.
type workload interface {
	shards() int
	// warmup is how long the load runs after set-up before it is
	// measured.
	warmup() time.Duration
	// callers is the fixed number of closed-loop caller goroutines per
	// mount.
	callers() int
	// prepare builds the namespace the load runs over (part of set-up).
	prepare(d *deployment) error
	// run drives the load for dur; t, when non-nil, is told about every
	// vfs op so probes can parent their spans.
	run(d *deployment, dur time.Duration, t *tracer) *sampler
	// check verifies the namespace after the load stopped.
	check(d *deployment) error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "churn":
		return &churn{seed: seed}, nil
	case "lookup-2shard":
		return &lookup{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want churn or lookup-2shard)", name)
}

// ---- sampling ---------------------------------------------------------

// windowLen is the length of the windows a run's outcomes are grouped
// in by their start time.
const windowLen = time.Second

// sampler collects one goroutine's (or, merged, one phase's) outcomes.
type sampler struct {
	t0        time.Time // start of the run; windows count from here
	wins      []window  // completed ops by the window they started in
	attempted int64
	failed    int64
	creates   int64
	wrong     int64
	firstBad  string
	elapsed   time.Duration
}

// window holds the latencies (ns) of the ops that started within one
// windowLen of a run.
type window struct{ read, write []int64 }

// lat returns the latencies of every read (write false) or write op.
func (s *sampler) lat(write bool) []int64 {
	var out []int64
	for _, w := range s.wins {
		if write {
			out = append(out, w.write...)
		} else {
			out = append(out, w.read...)
		}
	}
	return out
}

func (s *sampler) win(i int) *window {
	for len(s.wins) <= i {
		s.wins = append(s.wins, window{})
	}
	return &s.wins[i]
}

func (s *sampler) fail(format string, args ...any) {
	if s.firstBad == "" {
		s.firstBad = fmt.Sprintf(format, args...)
	}
}

// done records one op that started at start.
func (s *sampler) done(write bool, start time.Time, err error, what string) {
	s.attempted++
	if err != nil {
		s.failed++
		s.fail("%s: %v", what, err)
		return
	}
	lat := int64(time.Since(start))
	w := s.win(int(start.Sub(s.t0) / windowLen))
	if write {
		w.write = append(w.write, lat)
	} else {
		w.read = append(w.read, lat)
	}
}

// bad records a completed op whose result was wrong.
func (s *sampler) bad(format string, args ...any) {
	s.wrong++
	s.fail(format, args...)
}

func (s *sampler) merge(o *sampler) {
	for i, ow := range o.wins {
		w := s.win(i)
		w.read = append(w.read, ow.read...)
		w.write = append(w.write, ow.write...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.creates += o.creates
	s.wrong += o.wrong
	if s.firstBad == "" {
		s.firstBad = o.firstBad
	}
}

// opSpan brackets one vfs op for the tracer.
type opSpan struct {
	t    *tracer
	slot *atomic.Int32
}

func newOpSpan(t *tracer) opSpan {
	if t == nil {
		return opSpan{}
	}
	return opSpan{t: t, slot: t.register()}
}

func (o opSpan) begin(write bool) int32 {
	if o.t == nil {
		return -1
	}
	return o.t.beginOp(o.slot, write)
}

func (o opSpan) end(i int32) {
	if o.t != nil {
		o.t.endOp(o.slot, i)
	}
}

// closedLoop runs one goroutine per caller until dur has passed and
// merges their samples. body performs one unit of work.
func closedLoop(n int, dur time.Duration, t *tracer, body func(i int, s *sampler, sp opSpan)) *sampler {
	samples := make([]*sampler, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		samples[i] = &sampler{t0: start}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := newOpSpan(t)
			for time.Now().Before(deadline) {
				body(i, samples[i], sp)
			}
		}(i)
	}
	wg.Wait()
	out := &sampler{t0: start, elapsed: time.Since(start)}
	for _, s := range samples {
		out.merge(s)
	}
	return out
}

// ---- churn ------------------------------------------------------------

// churn: every caller cycles create → stat → rename → unlink in its own
// directory, so the namespace size stays constant.
type churn struct {
	seed int64
	rngs []*rand.Rand
}

func (c *churn) shards() int { return 1 }

// warmup: churn's rate is level from its first second on.
func (c *churn) warmup() time.Duration { return time.Second }

// callers: enough that group commit always has a batch waiting, which
// keeps churn's figures repeatable on a noisy disk.
func (c *churn) callers() int { return 16 }

func churnDir(i int) string { return fmt.Sprintf("/c%02d", i) }

func (c *churn) prepare(d *deployment) error {
	n := len(d.mounts) * c.callers()
	c.rngs = make([]*rand.Rand, n)
	for i := 0; i < n; i++ {
		c.rngs[i] = rand.New(rand.NewSource(c.seed*1000 + int64(i)))
		if err := d.mounts[i%len(d.mounts)].Mkdir(churnDir(i), 0o755); err != nil {
			return fmt.Errorf("mkdir %s: %w", churnDir(i), err)
		}
	}
	return nil
}

func (c *churn) run(d *deployment, dur time.Duration, t *tracer) *sampler {
	return closedLoop(len(c.rngs), dur, t, func(i int, s *sampler, sp opSpan) {
		fs := d.mounts[i%len(d.mounts)]
		rng := c.rngs[i]
		src := fmt.Sprintf("%s/f%08x", churnDir(i), rng.Uint32())
		dst := fmt.Sprintf("%s/g%08x", churnDir(i), rng.Uint32())

		s.creates++
		span, start := sp.begin(true), time.Now()
		h, err := fs.Create(src, 0o644)
		if err == nil {
			err = h.Close()
		}
		s.done(true, start, err, "create "+src)
		sp.end(span)

		span, start = sp.begin(false), time.Now()
		fi, err := fs.Stat(src)
		s.done(false, start, err, "stat "+src)
		sp.end(span)
		if err == nil && fi.Mode != vfs.ModeRegular|0o644 {
			s.bad("stat %s after create: mode %o, want %o", src, fi.Mode, vfs.ModeRegular|0o644)
		}

		span, start = sp.begin(true), time.Now()
		err = fs.Rename(src, dst)
		s.done(true, start, err, "rename "+src)
		sp.end(span)

		span, start = sp.begin(true), time.Now()
		err = fs.Unlink(dst)
		s.done(true, start, err, "unlink "+dst)
		sp.end(span)
	})
}

func (c *churn) check(d *deployment) error {
	for i := range c.rngs {
		ents, err := d.mounts[0].Readdir(churnDir(i))
		if err != nil {
			return fmt.Errorf("readdir %s: %w", churnDir(i), err)
		}
		if len(ents) != 0 {
			return fmt.Errorf("%s holds %d entries after the run, want 0", churnDir(i), len(ents))
		}
	}
	for b, fs := range d.memfs {
		if files, _ := fs.Counts(); files != 0 {
			return fmt.Errorf("back-end %d holds %d file bodies after every file was unlinked", b, files)
		}
	}
	return nil
}

// ---- lookup -------------------------------------------------------------

// lookup: a static namespace of lookupDirs directories, each holding
// lookupFiles files and lookupSubdirs subdirectories, read by a
// stat/readdir-heavy mix with a trickle of directory chmods, on two
// shards behind the shard.Router.
type lookup struct {
	seed int64
	rngs []*rand.Rand
}

const (
	lookupDirs    = 64
	lookupFiles   = 64
	lookupSubdirs = 8
)

func (l *lookup) shards() int { return 2 }

// warmup: after set-up, lookup-2shard's rate climbs for several seconds
// (in one-second windows, from about 45k to 60k ops/s over the first 5
// to 10 on a 2-vCPU VM) before it levels off.
func (l *lookup) warmup() time.Duration { return 10 * time.Second }

func (l *lookup) callers() int { return 8 }

func (l *lookup) prepare(d *deployment) error {
	n := len(d.mounts) * l.callers()
	l.rngs = make([]*rand.Rand, n)
	for i := range l.rngs {
		l.rngs[i] = rand.New(rand.NewSource(l.seed*1000 + int64(i)))
	}
	return parallel(prepareWorkers, lookupDirs, func(w, dir int) error {
		fs := d.mounts[w%len(d.mounts)]
		dp := fmt.Sprintf("/d%02d", dir)
		if err := fs.Mkdir(dp, 0o755); err != nil {
			return fmt.Errorf("mkdir %s: %w", dp, err)
		}
		for s := 0; s < lookupSubdirs; s++ {
			if err := fs.Mkdir(fmt.Sprintf("%s/s%d", dp, s), 0o755); err != nil {
				return fmt.Errorf("mkdir %s/s%d: %w", dp, s, err)
			}
		}
		for f := 0; f < lookupFiles; f++ {
			h, err := fs.Create(fmt.Sprintf("%s/f%02d", dp, f), 0o644)
			if err != nil {
				return fmt.Errorf("create %s/f%02d: %w", dp, f, err)
			}
			h.Close()
		}
		return nil
	})
}

func (l *lookup) run(d *deployment, dur time.Duration, t *tracer) *sampler {
	return closedLoop(len(l.rngs), dur, t, func(i int, s *sampler, sp opSpan) {
		fs := d.mounts[i%len(d.mounts)]
		rng := l.rngs[i]
		dir := fmt.Sprintf("/d%02d", rng.Intn(lookupDirs))
		switch p := rng.Intn(100); {
		case p < 60:
			path := fmt.Sprintf("%s/f%02d", dir, rng.Intn(lookupFiles))
			span, start := sp.begin(false), time.Now()
			fi, err := fs.Stat(path)
			s.done(false, start, err, "stat "+path)
			sp.end(span)
			if err == nil && fi.Mode&vfs.ModeRegular == 0 {
				s.bad("stat %s: mode %o, want a regular file", path, fi.Mode)
			}
		case p < 80:
			path := fmt.Sprintf("%s/s%d", dir, rng.Intn(lookupSubdirs))
			span, start := sp.begin(false), time.Now()
			fi, err := fs.Stat(path)
			s.done(false, start, err, "stat "+path)
			sp.end(span)
			if err == nil && !fi.IsDir() {
				s.bad("stat %s: mode %o, want a directory", path, fi.Mode)
			}
		case p < 95:
			span, start := sp.begin(false), time.Now()
			ents, err := fs.Readdir(dir)
			s.done(false, start, err, "readdir "+dir)
			sp.end(span)
			if err == nil {
				if msg := checkListing(ents); msg != "" {
					s.bad("readdir %s: %s", dir, msg)
				}
			}
		default:
			path := fmt.Sprintf("%s/s%d", dir, rng.Intn(lookupSubdirs))
			perm := uint32(0o750 + 5*rng.Intn(2)) // 0o750 or 0o755
			span, start := sp.begin(true), time.Now()
			err := fs.Chmod(path, perm)
			s.done(true, start, err, "chmod "+path)
			sp.end(span)
		}
	})
}

// checkListing verifies one lookup directory's entries: every file and
// subdirectory it was created with, each of the right kind.
func checkListing(ents []vfs.DirEntry) string {
	if len(ents) != lookupFiles+lookupSubdirs {
		return fmt.Sprintf("%d entries, want %d", len(ents), lookupFiles+lookupSubdirs)
	}
	for _, e := range ents {
		if wantDir := e.Name[0] == 's'; e.IsDir != wantDir {
			return fmt.Sprintf("entry %s: dir=%v, want %v", e.Name, e.IsDir, wantDir)
		}
	}
	return ""
}

func (l *lookup) check(d *deployment) error {
	for dir := 0; dir < lookupDirs; dir++ {
		ents, err := d.mounts[0].Readdir(fmt.Sprintf("/d%02d", dir))
		if err != nil {
			return err
		}
		if msg := checkListing(ents); msg != "" {
			return fmt.Errorf("/d%02d after the run: %s", dir, msg)
		}
	}
	return nil
}

// prepareWorkers builds a namespace concurrently enough that group
// commit batches its writes: set-up then waits on a few large fsyncs
// rather than many small ones, whose latency varies more on a shared disk.
const prepareWorkers = 64

// parallel runs fn(worker, item) for items 0..n-1 on workers goroutines
// and returns the first error.
func parallel(workers, n int, fn func(w, item int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				item := int(next.Add(1) - 1)
				if item >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(w, item)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
