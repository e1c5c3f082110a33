package tensor

import (
	"fmt"

	"github.com/sparse-dl/samo/internal/parallel"
)

// ConvSpec describes a 2-D convolution: kernel size, stride and padding are
// symmetric in height and width (all the VGG/WideResNet layers used in the
// paper are square). Layout is NCHW.
type ConvSpec struct {
	InC, OutC int
	Kernel    int
	Stride    int
	Pad       int
	InH, InW  int
}

// OutH returns the output height.
func (s ConvSpec) OutH() int { return (s.InH+2*s.Pad-s.Kernel)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvSpec) OutW() int { return (s.InW+2*s.Pad-s.Kernel)/s.Stride + 1 }

// Im2ColInto lowers an NCHW input (n, inC, inH, inW) into an existing cols
// matrix of shape (n·outH·outW, inC·k·k) so convolution becomes a single
// dense GEMM against the (inC·k·k, outC) weight matrix — the standard
// cuDNN-style lowering that lets the forward pass reuse the dense kernel
// SAMO depends on. It does not allocate.
func Im2ColInto(cols, in *Tensor, s ConvSpec) {
	if in.Rank() != 4 {
		panic("tensor: Im2Col requires NCHW rank-4 input")
	}
	n := in.shape[0]
	if in.shape[1] != s.InC || in.shape[2] != s.InH || in.shape[3] != s.InW {
		panic(fmt.Sprintf("tensor: Im2Col input %v does not match spec %+v", in.shape, s))
	}
	oh, ow := s.OutH(), s.OutW()
	k := s.Kernel
	if cols.Len() != n*oh*ow*s.InC*k*k {
		panic(fmt.Sprintf("tensor: Im2ColInto output has %d elements, want %d", cols.Len(), n*oh*ow*s.InC*k*k))
	}
	j := im2colJobFree.Get()
	j.src, j.dst = in.data, cols.data
	j.spec, j.oh, j.ow = s, oh, ow
	parallel.Run(n*oh*ow, 64, j, im2colChunk)
	j.src, j.dst = nil, nil
	im2colJobFree.Put(j)
}

// im2colJob carries one lowering's arguments to the pool workers; pooled
// so the conv forward path (one Im2ColInto per conv layer per microbatch)
// dispatches without allocating a closure.
type im2colJob struct {
	src, dst []float32
	spec     ConvSpec
	oh, ow   int
}

var im2colJobFree parallel.Pool[im2colJob]

// im2colChunk lowers output rows [lo,hi); each row writes a disjoint
// rowLen slice of the column matrix.
func im2colChunk(ctx any, lo, hi int) {
	g := ctx.(*im2colJob)
	s, oh, ow := g.spec, g.oh, g.ow
	src, dst := g.src, g.dst
	k := s.Kernel
	rowLen := s.InC * k * k
	for r := lo; r < hi; r++ {
		img := r / (oh * ow)
		rem := r % (oh * ow)
		oy := rem / ow
		ox := rem % ow
		base := r * rowLen
		for c := 0; c < s.InC; c++ {
			chanOff := (img*s.InC + c) * s.InH * s.InW
			for ky := 0; ky < k; ky++ {
				iy := oy*s.Stride + ky - s.Pad
				rowOff := base + (c*k+ky)*k
				if iy < 0 || iy >= s.InH {
					for kx := 0; kx < k; kx++ {
						dst[rowOff+kx] = 0
					}
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox*s.Stride + kx - s.Pad
					if ix < 0 || ix >= s.InW {
						dst[rowOff+kx] = 0
					} else {
						dst[rowOff+kx] = src[chanOff+iy*s.InW+ix]
					}
				}
			}
		}
	}
}

// col2imCheck validates both operands of the backward lowering. The output
// is checked dimension by dimension, not just by element count: an NHWC-
// permuted tensor has the same length as the NCHW gradient and a length-only
// check would let it through silently.
func col2imCheck(out, cols *Tensor, s ConvSpec, n int) {
	oh, ow := s.OutH(), s.OutW()
	rowLen := s.InC * s.Kernel * s.Kernel
	if cols.Rank() != 2 || cols.shape[0] != n*oh*ow || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match spec %+v", cols.shape, s))
	}
	if out.Rank() != 4 || out.shape[0] != n || out.shape[1] != s.InC ||
		out.shape[2] != s.InH || out.shape[3] != s.InW {
		panic(fmt.Sprintf("tensor: Col2Im output %v does not match spec %+v (want [%d %d %d %d])",
			out.shape, s, n, s.InC, s.InH, s.InW))
	}
}

// Col2ImZeroInto scatter-adds a column matrix (as produced by Im2ColInto)
// back into an existing NCHW gradient tensor of shape (n, inC, inH, inW) —
// the backward of the lowering — without allocating. The destination's
// contents are unspecified on entry: each worker zeroes the output rows it
// owns before gathering into them, so callers (the conv backward) skip a
// separate serial zeroing pass. The kernel runs in parallel on the worker
// pool and is bitwise-identical to the serial scatter at any worker count
// (see col2imChunk).
func Col2ImZeroInto(out, cols *Tensor, s ConvSpec, n int) {
	col2imCheck(out, cols, s, n)
	col2imRun(out.data, cols.data, s, n)
}

// col2imJob carries one backward lowering's arguments to the pool workers;
// pooled like im2colJob so the conv backward dispatches without allocating.
type col2imJob struct {
	src, dst []float32
	spec     ConvSpec
	oh, ow   int
}

var col2imJobFree parallel.Pool[col2imJob]

// col2imRun dispatches the gather kernel over (image, input-row) units.
// Units write disjoint output rows, so any partition is race-free, and the
// per-element accumulation order is independent of the partition (see
// col2imChunk) — the result is bitwise-identical at every worker count.
func col2imRun(dst, src []float32, s ConvSpec, n int) {
	j := col2imJobFree.Get()
	j.src, j.dst = src, dst
	j.spec, j.oh, j.ow = s, s.OutH(), s.OutW()
	// Grain: one unit gathers ~(k/stride)·ow·inC·k values; bound chunks so a
	// chunk is worth a dispatch even for 1×1 kernels on small images.
	perRow := ((s.Kernel+s.Stride-1)/s.Stride)*j.ow*s.InC*s.Kernel + 1
	grain := (4096 + perRow - 1) / perRow
	parallel.Run(n*s.InH, grain, j, col2imChunk)
	j.src, j.dst = nil, nil
	col2imJobFree.Put(j)
}

// col2imChunk gathers output units [lo,hi), where unit u = img·inH + iy owns
// the output row iy of every channel of image img — a disjoint strip of the
// gradient, so chunks never race.
//
// Determinism: the serial scatter accumulates into a fixed output element
// (c, iy, ix) once per contributing column row, in ascending (oy, ox) order.
// The gather visits the contributions to each of its elements in exactly
// that order — oy ascending (each oy pins ky = iy - oy·stride + pad), then
// ox ascending (each ox pins the kx that lands on ix) — so every element
// sees the same additions in the same order as the serial kernel and the
// result is bitwise-identical regardless of how units are partitioned.
func col2imChunk(ctx any, lo, hi int) {
	g := ctx.(*col2imJob)
	s, oh, ow := g.spec, g.oh, g.ow
	src, dst := g.src, g.dst
	k, st, pad := s.Kernel, s.Stride, s.Pad
	inH, inW := s.InH, s.InW
	rowLen := s.InC * k * k
	for u := lo; u < hi; u++ {
		img := u / inH
		iy := u % inH
		for c := 0; c < s.InC; c++ {
			off := ((img*s.InC+c)*inH + iy) * inW
			zeroSlice(dst[off : off+inW])
		}
		// Output rows oy whose kernel window covers input row iy:
		// iy = oy·stride + ky - pad with ky in [0, k).
		oyLo := (iy + pad - k + st) / st // ceil((iy+pad-k+1)/stride), then clamped
		if oyLo < 0 {
			oyLo = 0
		}
		oyHi := (iy + pad) / st
		if oyHi > oh-1 {
			oyHi = oh - 1
		}
		for oy := oyLo; oy <= oyHi; oy++ {
			ky := iy - oy*st + pad
			rbase := (img*oh + oy) * ow
			for c := 0; c < s.InC; c++ {
				drow := dst[((img*s.InC+c)*inH+iy)*inW:]
				colOff := (c*k + ky) * k
				for ox := 0; ox < ow; ox++ {
					rowOff := (rbase+ox)*rowLen + colOff
					xlo := ox*st - pad
					for kx := 0; kx < k; kx++ {
						ix := xlo + kx
						if ix >= 0 && ix < inW {
							drow[ix] += src[rowOff+kx]
						}
					}
				}
			}
		}
	}
}

// MaxPool2x2Into performs 2×2 max pooling with stride 2 on an NCHW tensor
// into an existing output tensor, recording the flat argmax indices for the
// backward in arg (len = out.Len()), without allocating. A nil arg skips
// argmax tracking — the forward-only form for inference, where no backward
// will scatter.
func MaxPool2x2Into(out *Tensor, arg []int32, in *Tensor) {
	if in.Rank() != 4 {
		panic("tensor: MaxPool2x2 requires NCHW input")
	}
	n, c, h, w := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := h/2, w/2
	if out.Len() != n*c*oh*ow || (arg != nil && len(arg) != out.Len()) {
		panic("tensor: MaxPool2x2Into size mismatch")
	}
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			inOff := (img*c + ch) * h * w
			outOff := (img*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := inOff + (2*oy)*w + 2*ox
					bv := in.data[best]
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := inOff + (2*oy+dy)*w + 2*ox + dx
							if in.data[idx] > bv {
								bv, best = in.data[idx], idx
							}
						}
					}
					out.data[outOff+oy*ow+ox] = bv
					if arg != nil {
						arg[outOff+oy*ow+ox] = int32(best)
					}
				}
			}
		}
	}
}

// MaxPool2x2BackwardInto scatter-adds grad through the argmax indices into
// an existing zeroed tensor of the pooled input's shape.
func MaxPool2x2BackwardInto(out, grad *Tensor, arg []int32) {
	for i, g := range grad.data {
		out.data[arg[i]] += g
	}
}
