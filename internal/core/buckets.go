package core

import "fmt"

// Bucketed all-reduce plan.
//
// The data-parallel reduce payload (every paramState's ∇θ16 vector) is laid
// out in size-bounded contiguous slabs — buckets — packed at parameter
// granularity in BACKWARD order: the first bucket holds the last layers'
// gradients, which are the first to become final during backward. Each
// paramState.grad16 aliases a segment of exactly one slab, so gradient
// capture writes straight into the reduce payload with no gather copy, and
// the engine can launch bucket i's all-reduce the moment the backward pass
// crosses bucket i's lowest layer — while earlier layers are still
// computing.
//
// Determinism contract: the plan is a pure function of the model structure
// and maxElems, so every rank in a stage group builds the identical plan,
// and the overlapped and serial-barrier reduce paths consume the identical
// buffer list in the identical order. Bucket contents and reduce order are
// fixed here, never by arrival timing — which is what makes overlap-on vs
// overlap-off bitwise-identical.

// DefaultReduceBucketElems bounds each bucket's element count. 2^18 fp16
// elements is 512 KiB at two bytes each, what comm.AllReduceHalf sends each
// peer when 2 or 3 ranks reduce (larger groups move the bucket's 1 MiB
// float32 form in chunks) — large enough to amortize per-collective
// latency, small enough that a model of any size yields several buckets to
// pipeline behind backward.
const DefaultReduceBucketElems = 1 << 18

// ReduceBucket is one contiguous slab of the all-reduce payload.
type ReduceBucket struct {
	// Layer is the lowest model-layer index contributing gradients to this
	// bucket: the bucket is final once that layer's backward has completed.
	Layer int
	// Data is the flat fp16-grid gradient slab, aliased by the member
	// parameters' grad16 segments.
	Data []float32
}

// ReduceBuckets returns the bucket plan in backward (launch) order. The
// slice and slabs are owned by the state and reused across steps.
func (ms *ModelState) ReduceBuckets() []ReduceBucket { return ms.buckets }

// BucketReady reports how many leading buckets of ReduceBuckets are final
// once layer `layer`'s backward has completed — the iterator the engine
// consumes from nn.GradHook.LayerDone to launch overlapped reduces.
func (ms *ModelState) BucketReady(layer int) int { return ms.readyAt[layer] }

// PlanReduceBuckets re-plans the bucket layout with a new size bound,
// preserving any captured gradient values. The engine calls it once at
// worker construction when Config.ReduceBucketElems overrides the default;
// it is not a steady-state operation (it allocates fresh slabs).
func (ms *ModelState) PlanReduceBuckets(maxElems int) { ms.planBuckets(maxElems) }

// planBuckets packs parameters into buckets and aliases every grad16 into
// its slab segment. Walks layers in backward order, starting a new bucket
// whenever adding the next parameter would exceed maxElems (a single
// parameter larger than maxElems gets a bucket of its own).
func (ms *ModelState) planBuckets(maxElems int) {
	if maxElems <= 0 {
		maxElems = DefaultReduceBucketElems
	}
	layers := ms.model.Layers

	type member struct {
		st    *paramState
		layer int
	}
	var packed [][]member
	var cur []member
	curElems := 0
	flush := func() {
		if len(cur) > 0 {
			packed = append(packed, cur)
			cur, curElems = nil, 0
		}
	}
	for li := len(layers) - 1; li >= 0; li-- {
		for _, p := range layers[li].Params() {
			st, ok := ms.byParam[p]
			if !ok {
				panic(fmt.Sprintf("core: bucket plan saw unregistered parameter %s", p.Name))
			}
			n := len(st.theta32) // stored (possibly compressed) gradient length
			if curElems > 0 && curElems+n > maxElems {
				flush()
			}
			cur = append(cur, member{st, li})
			curElems += n
		}
	}
	flush()

	ms.buckets = make([]ReduceBucket, len(packed))
	ms.reduceBufs = make([][]float32, len(packed))
	ms.bucketMembers = make([][]*paramState, len(packed))
	for bi, members := range packed {
		mem := make([]*paramState, len(members))
		for i, m := range members {
			mem[i] = m.st
		}
		ms.bucketMembers[bi] = mem
		total := 0
		for _, m := range members {
			total += len(m.st.theta32)
		}
		slab := make([]float32, total)
		off := 0
		for _, m := range members {
			n := len(m.st.theta32)
			seg := slab[off : off+n : off+n]
			// Preserve captured values across a re-plan (construction-time
			// grad16 is nil, so this is a no-op there).
			copy(seg, m.st.grad16)
			m.st.grad16 = seg
			off += n
		}
		// Members are packed in descending layer order, so the last one
		// carries the bucket's lowest contributing layer.
		ms.buckets[bi] = ReduceBucket{Layer: members[len(members)-1].layer, Data: slab}
		ms.reduceBufs[bi] = slab
	}

	// readyAt[l] counts buckets whose lowest layer is >= l. Bucket minima
	// are non-increasing across the plan, so the ready set is always a
	// prefix of ReduceBuckets.
	ms.readyAt = make([]int, len(layers)+1)
	for l := range ms.readyAt {
		n := 0
		for _, b := range ms.buckets {
			if b.Layer >= l {
				n++
			}
		}
		ms.readyAt[l] = n
	}
}

// compactBuckets shrinks the grad16 slabs in place after a pattern shrink:
// each touched bucket's member segments slide leftward inside the existing
// slab (membership, packing order, Layer minima and hence readyAt never
// change — the plan is fixed; only segment lengths shrink). segKeeps holds
// the keep mask for every member whose stored vectors compacted; members
// absent from it (untouched parameters, and masked-dense ones whose
// storage stays full-length) keep their length and only shift. Kept values
// move with their positions, so a mid-run shrink never corrupts captured
// gradients; no allocation happens here.
func (ms *ModelState) compactBuckets(segKeeps map[*paramState][]bool) {
	for bi, members := range ms.bucketMembers {
		touched := false
		for _, st := range members {
			if _, ok := segKeeps[st]; ok {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		slab := ms.buckets[bi].Data
		w := 0
		for _, st := range members {
			seg := st.grad16
			start := w
			if keep, ok := segKeeps[st]; ok {
				// In-slab left compaction: writes never pass reads because
				// segments only ever shrink.
				for i, k := range keep {
					if k {
						slab[w] = seg[i]
						w++
					}
				}
			} else {
				copy(slab[w:w+len(seg)], seg)
				w += len(seg)
			}
			st.grad16 = slab[start:w:w]
		}
		ms.buckets[bi].Data = slab[:w]
		ms.reduceBufs[bi] = ms.buckets[bi].Data
	}
}
