package axonn

// Recovery over TCP across real OS processes. TestTCPRecoverKilledPeerProcess
// runs two processes (this test binary re-exec'd via TestMain),
// data-parallel over TCP. The non-saver process SIGKILLs itself mid-run once
// a durable checkpoint exists; the survivor aborts with a typed wire error,
// rebuilds the mesh, and waits while the test restarts the dead process with
// Resume. The recovered run's losses must be bitwise-equal to an
// uninterrupted local run. (TCP runs within one process are cells of
// TestEngineBitsMatrix.)
//
// The worker side lives in tcpWorkerMain, dispatched by TestMain when the
// SAMO_TCP_WORKER environment variable carries a JSON spec.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/ckpt"
	"github.com/sparse-dl/samo/internal/core"
)

const tcpWorkerEnv = "SAMO_TCP_WORKER"

// Fixed seeds shared by the parent's golden run and the re-exec'd workers:
// both sides must build the same model and batches or bitwise comparison is
// meaningless.
const (
	tcpModelSeed  = 7
	tcpBatchSeed  = 900
	tcpNumBatches = 40
	tcpDieAtCkpt  = 6
)

// TestMain dispatches to the TCP worker body when this binary is re-exec'd
// as a peer process; otherwise it runs the test suite normally.
func TestMain(m *testing.M) {
	if spec := os.Getenv(tcpWorkerEnv); spec != "" {
		os.Exit(tcpWorkerMain(spec))
	}
	os.Exit(m.Run())
}

// tcpWorkerSpec is the JSON contract between the parent test and a re-exec'd
// worker process.
type tcpWorkerSpec struct {
	Proc   int      `json:"proc"`
	Peers  []string `json:"peers"`
	Dir    string   `json:"dir"`
	Resume bool     `json:"resume"`
	// DieAtCkpt > 0: SIGKILL this process (no cleanup, no poison frame —
	// exactly what an OOM kill or node loss looks like on the wire) as soon
	// as checkpoint step DieAtCkpt is durable in Dir.
	DieAtCkpt int `json:"dieAtCkpt"`
}

// tcpWorkerReport is what a worker prints on stdout when Train returns.
type tcpWorkerReport struct {
	Losses      []float64 `json:"losses"`
	StageStates []string  `json:"stageStates"` // hex per stage; "" = remote
	Skipped     int       `json:"skipped"`
	Restarts    int       `json:"restarts"`
	StartBatch  int       `json:"startBatch"`
	Warnings    []string  `json:"warnings"`
	Err         string    `json:"err"`
}

// tcpTrainCfg is the layout under test: pure data parallelism (Ginter=1,
// Gdata=2) so rank 0 — the checkpoint saver and loss writer — lives in
// process 0 and survives, while process 1's death severs every collective.
func tcpTrainCfg(dir string) Config {
	return Config{
		Ginter: 1, Gdata: 2, Microbatch: 2,
		Mode:          core.Dense,
		CheckpointDir: dir, CheckpointEvery: 1, CheckpointKeep: 4,
		CollectiveDeadline: 15 * time.Second,
	}
}

func tcpWorkerMain(specJSON string) int {
	var sp tcpWorkerSpec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		fmt.Fprintf(os.Stderr, "worker: bad spec: %v\n", err)
		return 2
	}
	cfg := tcpTrainCfg(sp.Dir)
	cfg.Resume = sp.Resume
	cfg.Net = &NetConfig{Peers: sp.Peers, Proc: sp.Proc, DialTimeout: 60 * time.Second}

	if sp.DieAtCkpt > 0 {
		go tcpDieWhenDurable(cfg, sp.DieAtCkpt)
	}

	batches := makeBatches(tcpNumBatches, 8, tcpBatchSeed)
	res := Train(cfg, mlpBuilder(tcpModelSeed), adamBuilder(), nil, batches)

	rep := tcpWorkerReport{
		Losses:      res.Losses,
		Skipped:     res.SkippedSteps,
		Restarts:    res.Restarts,
		StartBatch:  res.StartBatch,
		Warnings:    res.Warnings,
		StageStates: make([]string, len(res.StageStates)),
	}
	for i, st := range res.StageStates {
		rep.StageStates[i] = hex.EncodeToString(st)
	}
	if res.Err != nil {
		rep.Err = res.Err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "worker: encode report: %v\n", err)
		return 2
	}
	if res.Err != nil {
		return 1
	}
	return 0
}

// tcpDieWhenDurable polls the shared checkpoint directory and SIGKILLs the
// current process once step is durably complete. SIGKILL (not os.Exit)
// guarantees no deferred teardown runs: connections die by kernel FIN/RST,
// the way a crashed peer's would.
func tcpDieWhenDurable(cfg Config, step int) {
	mgr, err := ckpt.New(ckpt.Options{
		Dir: cfg.CheckpointDir, Shards: cfg.Ginter,
		Keep: cfg.CheckpointKeep, Tag: cfg.tag(),
	})
	if err != nil {
		return
	}
	for {
		if got, _, ok := mgr.LatestStep(); ok && got >= step {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		time.Sleep(time.Millisecond)
	}
}

// freeLoopbackAddrs reserves n distinct loopback ports by binding and
// releasing them. The tiny window before the trainee rebinds is accepted;
// the TCP transport's dial-retry absorbs any startup skew.
func freeLoopbackAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func startTCPWorker(t *testing.T, exe string, sp tcpWorkerSpec, out *bytes.Buffer) *exec.Cmd {
	t.Helper()
	js, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), tcpWorkerEnv+"="+string(js))
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker %d: %v", sp.Proc, err)
	}
	return cmd
}

// waitWithin waits for cmd with a hang backstop, returning its exit error.
func waitWithin(t *testing.T, cmd *exec.Cmd, d time.Duration, what string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		cmd.Process.Kill()
		<-done
		t.Fatalf("%s did not exit within %v", what, d)
		return nil
	}
}

// TestTCPRecoverKilledPeerProcess is the cross-process recovery golden: a
// killed worker process is restarted, resumes from the newest durable
// checkpoint, and the surviving process's losses come out bitwise-equal to
// an uninterrupted run.
func TestTCPRecoverKilledPeerProcess(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}

	// Golden: the same config on the in-process local fabric, uninterrupted.
	batches := makeBatches(tcpNumBatches, 8, tcpBatchSeed)
	golden := Train(tcpTrainCfg(t.TempDir()), mlpBuilder(tcpModelSeed), adamBuilder(), nil, batches)
	if golden.Err != nil {
		t.Fatalf("golden run failed: %v", golden.Err)
	}

	dir := t.TempDir() // checkpoint dir shared by both worker processes
	addrs := freeLoopbackAddrs(t, 2)

	var out0, out1, out1b bytes.Buffer
	cmd0 := startTCPWorker(t, exe, tcpWorkerSpec{Proc: 0, Peers: addrs, Dir: dir}, &out0)
	defer func() {
		if cmd0.ProcessState == nil {
			cmd0.Process.Kill()
		}
	}()
	cmd1 := startTCPWorker(t, exe,
		tcpWorkerSpec{Proc: 1, Peers: addrs, Dir: dir, DieAtCkpt: tcpDieAtCkpt}, &out1)

	// First life of process 1 must die by SIGKILL, not exit on its own.
	if werr := waitWithin(t, cmd1, 60*time.Second, "worker 1 (doomed)"); werr == nil {
		t.Fatalf("worker 1 exited cleanly before its SIGKILL; output:\n%s", out1.String())
	}
	if code := cmd1.ProcessState.ExitCode(); code != -1 {
		t.Fatalf("worker 1 exited with code %d, want signal death; output:\n%s", code, out1.String())
	}

	// Restart it with Resume: it must rejoin the mesh (worker 0 is blocked
	// in its recovery dial loop) and replay from the newest checkpoint.
	cmd1b := startTCPWorker(t, exe,
		tcpWorkerSpec{Proc: 1, Peers: addrs, Dir: dir, Resume: true}, &out1b)
	if werr := waitWithin(t, cmd1b, 90*time.Second, "worker 1 (restarted)"); werr != nil {
		t.Fatalf("restarted worker 1 failed: %v\noutput:\n%s", werr, out1b.String())
	}
	if werr := waitWithin(t, cmd0, 90*time.Second, "worker 0"); werr != nil {
		t.Fatalf("worker 0 failed: %v\noutput:\n%s", werr, out0.String())
	}

	var rep tcpWorkerReport
	if err := json.Unmarshal(out0.Bytes(), &rep); err != nil {
		t.Fatalf("parse worker 0 report: %v\noutput:\n%s", err, out0.String())
	}
	if rep.Err != "" {
		t.Fatalf("worker 0 finished with error: %s (warnings: %v)", rep.Err, rep.Warnings)
	}
	if rep.Restarts == 0 {
		t.Fatalf("worker 0 reported no restarts; the kill was not observed (warnings: %v)", rep.Warnings)
	}

	// Bitwise golden comparison: every batch's loss, including the ones
	// trained before the kill and replayed after recovery.
	if len(rep.Losses) != len(golden.Losses) {
		t.Fatalf("losses length %d, want %d", len(rep.Losses), len(golden.Losses))
	}
	for i := range golden.Losses {
		if math.Float64bits(rep.Losses[i]) != math.Float64bits(golden.Losses[i]) {
			t.Fatalf("loss[%d] = %x, golden %x (not bitwise equal)",
				i, math.Float64bits(rep.Losses[i]), math.Float64bits(golden.Losses[i]))
		}
	}
	if want := hex.EncodeToString(golden.StageStates[0]); rep.StageStates[0] != want {
		t.Fatalf("stage 0 state differs from golden after recovery")
	}
	if rep.Skipped != golden.SkippedSteps {
		t.Fatalf("skipped steps = %d, golden %d", rep.Skipped, golden.SkippedSteps)
	}
}
