package service

import (
	"container/heap"
	"sync"
)

// jobQueue is a bounded blocking priority queue: higher Priority pops
// first, FIFO (by accept sequence) within a level. Admission control
// lives here — push refuses once depth jobs are waiting, which the
// service surfaces as 429 queue_full.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   jobHeap
	depth  int
	closed bool
}

func newJobQueue(depth int) *jobQueue {
	q := &jobQueue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues j, reporting false when the queue is full or closed.
func (q *jobQueue) push(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || (q.depth > 0 && q.heap.Len() >= q.depth) {
		return false
	}
	heap.Push(&q.heap, j)
	q.cond.Signal()
	return true
}

// pop blocks until a job is available or the queue is closed. After
// close it keeps draining buffered jobs; ok is false only when the
// queue is closed AND empty.
func (q *jobQueue) pop() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.heap.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.heap.Len() == 0 {
		return nil, false
	}
	return heap.Pop(&q.heap).(*Job), true
}

func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.heap.Len()
}

// close stops accepting pushes and wakes blocked pops; buffered jobs
// still drain.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].Priority != h[k].Priority {
		return h[i].Priority > h[k].Priority
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
