package tensor

// Arena is a size-keyed tensor recycler that makes steady-state training
// steps allocation-free. Layers allocate activations, gradients and scratch
// tensors from the arena during a step; Reset at the end of the step
// returns every arena-owned buffer to its free list in one sweep, so the
// next step's Gets are pure pops. The wholesale reset sidesteps the
// double-free and view-aliasing hazards of per-tensor free calls: views
// (Wrap, SliceOf) recycle only their Tensor header, never the data they
// alias.
//
// An Arena is NOT safe for concurrent use; each training goroutine (each
// simulated rank) owns one. All methods are nil-receiver-safe and fall back
// to plain heap allocation, so code paths without an arena — tests, one-off
// evaluations — call the same layer APIs with a nil *Arena.
type Arena struct {
	free    map[int][]*Tensor // owned tensors, keyed by cap(data)
	headers []*Tensor         // recycled headers for views (data not owned)
	used    []arenaSlot
	owned   int // elements across every tensor the arena ever allocated
}

type arenaSlot struct {
	t    *Tensor
	owns bool
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][]*Tensor)}
}

// Get returns a tensor of the given shape with UNSPECIFIED contents —
// callers must fully overwrite it (use GetZeroed for accumulators). The
// tensor belongs to the arena and is reclaimed by the next Reset.
func (a *Arena) Get(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	list := a.free[n]
	var t *Tensor
	if l := len(list); l > 0 {
		t = list[l-1]
		a.free[n] = list[:l-1]
		t.data = t.data[:n]
		t.shape = append(t.shape[:0], shape...)
	} else {
		t = New(shape...)
		a.owned += n
	}
	a.used = append(a.used, arenaSlot{t: t, owns: true})
	return t
}

// Bytes returns the float32 bytes the arena retains: every buffer it ever
// allocated, in use or on a free list. Free lists are keyed by exact size,
// so a caller that cycles through many shapes retains a working set per
// shape; this is the figure that shows it.
func (a *Arena) Bytes() int64 {
	if a == nil {
		return 0
	}
	return 4 * int64(a.owned)
}

// GetZeroed returns a zero-filled arena tensor.
func (a *Arena) GetZeroed(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	t := a.Get(shape...)
	zeroSlice(t.data)
	return t
}

// Wrap returns an arena-tracked tensor header around existing data (for
// example a payload received over the communication fabric). The data is
// NOT owned: Reset recycles only the header. len(data) must match the
// shape's element count.
func (a *Arena) Wrap(data []float32, shape ...int) *Tensor {
	if a == nil {
		return FromSlice(data, shape...)
	}
	n := checkShape(shape)
	if len(data) != n {
		panic("tensor: Arena.Wrap data length does not match shape")
	}
	t := a.header()
	t.data = data
	t.shape = append(t.shape[:0], shape...)
	a.used = append(a.used, arenaSlot{t: t})
	return t
}

// SliceOf returns an arena-tracked view of rows [lo,hi) of t along its
// first dimension — the allocation-free counterpart of Tensor.Slice.
func (a *Arena) SliceOf(t *Tensor, lo, hi int) *Tensor {
	if a == nil {
		return t.Slice(lo, hi)
	}
	if len(t.shape) == 0 {
		panic("tensor: SliceOf requires rank >= 1")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic("tensor: SliceOf out of range")
	}
	stride := 1
	for _, d := range t.shape[1:] {
		stride *= d
	}
	v := a.header()
	v.data = t.data[lo*stride : hi*stride]
	v.shape = append(v.shape[:0], hi-lo)
	v.shape = append(v.shape, t.shape[1:]...)
	a.used = append(a.used, arenaSlot{t: v})
	return v
}

func (a *Arena) header() *Tensor {
	if l := len(a.headers); l > 0 {
		t := a.headers[l-1]
		a.headers = a.headers[:l-1]
		return t
	}
	return &Tensor{}
}

// Reset reclaims every tensor handed out since the last Reset. Owned
// buffers return to the size-keyed free lists; view headers are stripped of
// their data reference and recycled. All tensors obtained from the arena
// are invalid after Reset — the caller is responsible for not retaining
// them across steps (activations never outlive the optimizer step that
// consumed them, which is the training loop's natural lifetime).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i, s := range a.used {
		if s.owns {
			n := cap(s.t.data)
			a.free[n] = append(a.free[n], s.t)
		} else {
			s.t.data = nil
			s.t.shape = s.t.shape[:0]
			a.headers = append(a.headers, s.t)
		}
		a.used[i].t = nil
	}
	a.used = a.used[:0]
}
