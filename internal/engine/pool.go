package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the shared work-stealing executor behind batch execution. Tasks
// are distributed round-robin across per-worker deques; each worker drains
// its own deque LIFO and, when empty, steals FIFO from the other deques, so
// a batch of heterogeneous queries (cheap cache hits next to deep spatial
// locations) keeps every worker busy until the batch is done.
//
// The pool's workers are host goroutines multiplexing the *simulated* PRAM
// processors: the paper-level resource is the processor budget P, which the
// engine splits across the queries of a batch (p = P/b each, the p-way cost
// model); the pool merely executes those per-query searches concurrently on
// whatever host parallelism is available. Simulated cost (Stats.Steps) is
// therefore independent of the worker count.
type Pool struct {
	workers int
	deques  []wsDeque
	steals  atomic.Int64
	tasks   atomic.Int64
	idle    atomic.Int64
}

// Task is an indexed unit of pool work: RunTask(i) runs item i of n. A
// batch hands the pool one Task and the item count, so dispatch costs no
// closure per item.
type Task interface {
	RunTask(i int)
}

// poolJob tracks one RunIndexed call's items to completion, whoever runs
// them.
type poolJob struct {
	task    Task
	pending atomic.Int64
	wg      sync.WaitGroup
}

// taskRef is one queued item: the job it belongs to and its index.
type taskRef struct {
	job *poolJob
	i   int
}

// run executes the item and marks it done. The WaitGroup release is the
// last touch of the job, so the RunIndexed caller may recycle it after
// Wait.
func (t taskRef) run() {
	t.job.task.RunTask(t.i)
	t.job.pending.Add(-1)
	t.job.wg.Done()
}

// jobPool recycles poolJobs across RunIndexed calls.
var jobPool = sync.Pool{New: func() any { return new(poolJob) }}

// wsDeque is one worker's task queue. A mutex per deque keeps the stealing
// protocol trivially correct under -race; contention is negligible because
// query execution dwarfs queue operations. head indexes the oldest item;
// the backing array is rewound whenever the deque drains, so a steady
// state of pushes and pops allocates nothing.
type wsDeque struct {
	mu    sync.Mutex
	items []taskRef
	head  int
}

func (d *wsDeque) push(t taskRef) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

// popBottom takes the most recently pushed task (owner side).
func (d *wsDeque) popBottom() (taskRef, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == d.head {
		return taskRef{}, false
	}
	t := d.items[n-1]
	d.items[n-1] = taskRef{}
	d.items = d.items[:n-1]
	d.rewind()
	return t, true
}

// stealTop takes the oldest task (thief side).
func (d *wsDeque) stealTop() (taskRef, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == d.head {
		return taskRef{}, false
	}
	t := d.items[d.head]
	d.items[d.head] = taskRef{}
	d.head++
	d.rewind()
	return t, true
}

// rewind resets an empty deque to the start of its backing array.
func (d *wsDeque) rewind() {
	if d.head == len(d.items) {
		d.items, d.head = d.items[:0], 0
	}
}

// NewPool returns a pool with the given worker count (≤ 0 selects
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, deques: make([]wsDeque, workers)}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Steals returns the cumulative number of successful steals.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// Tasks returns the cumulative number of tasks executed.
func (p *Pool) Tasks() int64 { return p.tasks.Load() }

// Idle returns the cumulative number of empty steal sweeps: a worker found
// its own deque and every victim empty and went idle. The ratio
// idle/tasks indicates how starved the pool runs (high when batches are
// smaller than the worker count).
func (p *Pool) Idle() int64 { return p.idle.Load() }

// RunIndexed executes t.RunTask(i) for every i in [0, n) and blocks until
// all have finished. Items must not add further work; that invariant is
// what makes a worker's empty sweep a safe exit condition.
//
// A single item, or a one-worker pool, runs inline on the caller. Otherwise
// the items are pushed round-robin onto the deques, min(workers, n)−1
// helper goroutines are spawned, and the caller itself works as worker 0
// until its own items are all claimed.
//
// RunIndexed may be called concurrently: the deques are shared, so a
// worker spawned by one call can execute items pushed by another.
// Completion is therefore tracked per call, not per worker — a call
// returns exactly when its own items are done, whoever ran them. Helpers
// exit only on a sweep that finds every deque empty, and the caller keeps
// sweeping until its own items are done or every deque is empty, so each
// pushed item is claimed by some live worker.
func (p *Pool) RunIndexed(n int, t Task) {
	if n <= 0 {
		return
	}
	if n == 1 || p.workers == 1 {
		for i := 0; i < n; i++ {
			t.RunTask(i)
		}
		p.tasks.Add(int64(n))
		return
	}
	j := jobPool.Get().(*poolJob)
	j.task = t
	j.pending.Store(int64(n))
	j.wg.Add(n)
	for i := 0; i < n; i++ {
		p.deques[i%p.workers].push(taskRef{job: j, i: i})
	}
	active := min(p.workers, n)
	for w := 1; w < active; w++ {
		go p.work(w, nil)
	}
	p.work(0, j)
	j.wg.Wait()
	j.task = nil
	jobPool.Put(j)
}

// work is one worker's loop: drain its own deque LIFO, then steal FIFO.
// A helper (own == nil) runs until a sweep finds every deque empty; the
// RunIndexed caller (own != nil) also stops once its own items are all
// done.
func (p *Pool) work(w int, own *poolJob) {
	for own == nil || own.pending.Load() > 0 {
		t, ok := p.deques[w].popBottom()
		if !ok {
			t, ok = p.steal(w)
			if !ok {
				return
			}
		}
		t.run()
		p.tasks.Add(1)
	}
}

// steal scans the other deques once for a task.
func (p *Pool) steal(self int) (taskRef, bool) {
	for off := 1; off < p.workers; off++ {
		victim := (self + off) % p.workers
		if t, ok := p.deques[victim].stealTop(); ok {
			p.steals.Add(1)
			return t, true
		}
	}
	p.idle.Add(1)
	return taskRef{}, false
}
