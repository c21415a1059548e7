package codec

// tilePool is the Encoder's persistent worker pool — the software
// counterpart of the VCU's fixed lane parallelism (paper §3.2: the
// encoder core processes tiles and filter stripes on dedicated
// hardware; here the same units of work fan out over long-lived
// goroutines). One pool lives as long as its Encoder: workers start at
// NewEncoder, every frame's tile columns, deblock stripes and
// restoration scans are dispatched as jobs, and Close joins the pool.
// A persistent pool (rather than per-frame spawns) keeps each worker's
// encode scratch — prediction buffers, entropy model, coefficient
// blocks, the motion-search pyramid scratch — alive across frames, so
// steady-state encoding allocates only the per-frame output slices.
//
// Work never depends on which worker runs it: jobs carry all frame
// state, per-worker scratch is reset before use, and job outputs are
// copied out of the scratch before the job completes. The bitstream is
// therefore byte-identical for every pool size (pinned by
// TestEncodeDeterministicAcrossWorkers).

import (
	"sync"

	"openvcu/internal/codec/filter"
)

// poolJob is one unit of work: fn runs on a worker with that worker's
// private scratch, then wg is signalled.
type poolJob struct {
	fn func(ws *encScratch)
	wg *sync.WaitGroup
}

// encScratch is the per-worker encode state reused across frames. fc is
// built lazily on the worker's first tile job (filter-stripe jobs never
// touch it) and reset per frame.
type encScratch struct {
	fc *encFrame
}

type tilePool struct {
	jobs chan poolJob
	// join counts live workers; Close waits on it after closing jobs.
	join    sync.WaitGroup
	workers int
}

// newTilePool starts n persistent workers. The unbuffered channel is
// deliberate: submit blocks until a worker accepts, so job memory stays
// bounded by the worker count.
func newTilePool(n int) *tilePool {
	p := &tilePool{jobs: make(chan poolJob), workers: n}
	p.join.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// worker owns one encScratch for its lifetime and drains jobs until the
// pool closes.
func (p *tilePool) worker() {
	defer p.join.Done()
	ws := &encScratch{}
	for j := range p.jobs {
		j.fn(ws)
		j.wg.Done()
	}
}

// run dispatches a batch of jobs and blocks until every one completes —
// a barrier, which is exactly the semantics filter.Runner requires.
func (p *tilePool) run(fns []func(ws *encScratch)) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		p.jobs <- poolJob{fn: fn, wg: &wg}
	}
	wg.Wait()
}

// close joins the pool: no submissions may follow.
func (p *tilePool) close() {
	close(p.jobs)
	p.join.Wait()
}

// runner adapts the pool (or its absence) to filter.Runner. Plain tasks
// ignore the worker scratch. The caller's goroutine does not steal work
// — with W workers the pool runs W tasks concurrently, keeping the
// Workers knob an exact concurrency bound.
func (e *Encoder) runner() func(tasks []func()) {
	if e.pool == nil {
		return filter.RunInline
	}
	return func(tasks []func()) {
		fns := make([]func(ws *encScratch), len(tasks))
		for i, t := range tasks {
			t := t
			fns[i] = func(*encScratch) { t() }
		}
		e.pool.run(fns)
	}
}
