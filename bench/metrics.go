package main

import "encoding/json"

// metricDef is one row of the metric tables below — the single source
// BENCHMARK.json (written by -manifest) and the printed lines derive from.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is the run length the benchmark contract records.
const runSeconds = 10

// endToEnd is what a user of the system sees. Every workload reports every
// metric: for the training workloads an operation is a training step, for
// the serving workload it is an open-loop request, timed from its due time.
//
// The one gated time per operation is its floor (see floor in stats.go),
// not its median: on the shared VMs this runs on, the median, the p90 and
// the throughput of one binary move 10-30% between runs with the
// neighbours' load, which no bound the contract allows can absorb. They are
// printed as information by every run and as wall.* per-layer metrics by
// the traced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_floor", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "model_state_bytes", Unit: "bytes", Better: "lower", Bound: 0.01},
	{Name: "heap_live_bytes", Unit: "bytes", Better: "lower", Bound: 0.10},
}

const (
	wSerial = "gpt_serial_samo"
	wHybrid = "gpt_hybrid_2x2_gradual"
	wTCP    = "mlp_dp2_tcp_dense"
	wS90    = "mlp_sparse_90"
	wS50    = "mlp_sparse_50"
	wServe  = "serve_gpt_open_loop"
)

// perLayer is what the traced run prints, one module of internal/ per
// prefix (wall.* and trace.* are the benchmark's own). A metric that does
// not apply to a workload prints 0 there. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "nn.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.fwd_block_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_block_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.fwd_linear_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_linear_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.fwd_sparselinear_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_sparselinear_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.fwd_other_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_other_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_t_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.t_matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_bytes", Unit: "bytes", Better: "lower"},

	{Name: "sparse.spmmt_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.sddmm_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.dense_masked_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.spmmt_eff_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "sparse.xover_sparse_share", Unit: "share", Better: "higher"},
	{Name: "sparse.compress_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "sparse.expand_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "core.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.zero_grads_ms", Unit: "ms", Better: "lower"},
	{Name: "core.skipped_steps", Unit: "count", Better: "lower"},
	{Name: "core.memory_ledger_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.infer_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inference_state_bytes", Unit: "bytes", Better: "lower"},

	{Name: "optim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "optim.busy_share", Unit: "share", Better: "lower"},

	{Name: "comm.coll_elements_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.coll_ops_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.p2p_elements_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.p2p_messages_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.exposed_coll_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "comm.exposed_share", Unit: "share", Better: "lower"},
	{Name: "comm.allreduce_local_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.allreduce_tcp_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.allreduce_tcp_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "comm.sendrecv_tcp_us", Unit: "us", Better: "lower"},

	{Name: "axonn.bubble_share_sched", Unit: "share", Better: "lower"},
	{Name: "axonn.prune_event_step_ms", Unit: "ms", Better: "lower"},
	{Name: "axonn.ckpt_step_ms", Unit: "ms", Better: "lower"},
	{Name: "axonn.train_call_overhead_s", Unit: "s", Better: "lower"},

	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.load_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.bytes", Unit: "bytes", Better: "lower"},
	{Name: "prune.event_ms", Unit: "ms", Better: "lower"},
	{Name: "prune.magnitude_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.latency_ms_p50_lo", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_ms_p50_mid", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_ms_p99_mid", Unit: "ms", Better: "lower"},
	{Name: "serve.within_limit_share_mid", Unit: "share", Better: "higher"},
	{Name: "serve.saturation_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.mean_batch_lo", Unit: "count", Better: "higher"},
	{Name: "serve.mean_batch_mid", Unit: "count", Better: "higher"},
	{Name: "serve.padded_share", Unit: "share", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "share", Better: "lower"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.forward_ms_b8", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms_p50_mid", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_late_ms_max", Unit: "ms", Better: "lower"},

	{Name: "wall.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "wall.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "wall.throughput_per_s", Unit: "1/s", Better: "higher"},

	{Name: "trace.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, t := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range t {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}
