package knn

// pqueue is the binary heap behind every queue of the package: the HS
// node queue and the k-best candidate set. It is container/heap
// specialised to a typed slice, so a push or pop boxes nothing into an
// interface and allocates only when the slice grows.
//
// up and down are container/heap's, statement for statement: the same
// comparisons in the same order make the same swaps, so elements with
// equal keys leave the heap in the order they always have — which every
// deterministic page count, tie-break and golden file depends on.
type pqueue[T interface{ before(T) bool }] []T

// push adds x (container/heap.Push).
func (h *pqueue[T]) push(x T) {
	*h = append(*h, x)
	h.up(len(*h) - 1)
}

// pop removes and returns the first element in before order
// (container/heap.Pop).
func (h *pqueue[T]) pop() T {
	n := len(*h) - 1
	(*h)[0], (*h)[n] = (*h)[n], (*h)[0]
	h.down(0, n)
	x := (*h)[n]
	*h = (*h)[:n]
	return x
}

// fix re-establishes the order after element i changed
// (container/heap.Fix).
func (h pqueue[T]) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h pqueue[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h pqueue[T]) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].before(h[j1]) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}
