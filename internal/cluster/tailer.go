package cluster

// The peer tailer: a background loop that polls every configured peer's
// /cluster/pull endpoint and applies what comes back through the local
// System. One goroutine serves all peers sequentially — replication
// traffic is tiny (human-rate feedback events), and a single puller keeps
// the apply path trivially ordered.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"soda/internal/obs"
	"soda/internal/store"
)

// maxRoundsPerTick bounds how many back-to-back pulls a single tick may
// issue against one peer while draining a backlog (More=true).
const maxRoundsPerTick = 64

// Local is the tailer's view of the replica it feeds — implemented by
// core.System.
type Local interface {
	ReplicaID() string
	AppliedVector() store.Vector
	ApplyRemote(recs []store.Record) (int, error)
	AdoptState(st *store.ReplicaState) error
	NoteOriginClock(origin string, lc uint64)
}

// PeerStatus is one peer's replication health, exposed on /healthz.
type PeerStatus struct {
	Addr   string `json:"addr"`
	Origin string `json:"origin,omitempty"`
	// LastContact is the wall-clock time of the last successful pull;
	// zero when the peer has never answered.
	LastContact time.Time `json:"last_contact,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	// RecordsBehind is how many records the peer has applied that this
	// replica has not yet (by the vectors of the last pull) — the
	// replication lag, in records.
	RecordsBehind uint64 `json:"records_behind"`
	Pulls         uint64 `json:"pulls"`
	RecordsPulled uint64 `json:"records_pulled"`
	CatchUps      uint64 `json:"catch_ups,omitempty"`
}

// Config wires a Tailer.
type Config struct {
	Local Local
	Peers []string
	// Interval between poll rounds (default 500ms).
	Interval time.Duration
	// BatchLimit caps records per pull (default 1024).
	BatchLimit int
	// Client is the HTTP client (default: 5s timeout).
	Client *http.Client
	// Log, when set, receives replication warnings (peer unreachable,
	// catch-up adoptions). The tailer tags its lines with the "cluster"
	// component; a nil logger drops them.
	Log *obs.Logger
}

// Tailer polls peers and applies their records locally. Start launches
// the loop; Stop shuts it down and blocks until the goroutine has exited,
// so a caller that stops the tailer before closing the store can never
// leak an in-flight apply onto a closed WAL.
type Tailer struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	status  map[string]*PeerStatus
	started bool
	stopped bool
}

// NewTailer builds a Tailer (not yet running).
func NewTailer(cfg Config) *Tailer {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultIntervalMS * time.Millisecond
	}
	if cfg.BatchLimit <= 0 {
		cfg.BatchLimit = DefaultBatchLimit
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Tailer{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: make(map[string]*PeerStatus, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		t.status[p] = &PeerStatus{Addr: p}
	}
	return t
}

// Start launches the poll loop. Idempotent.
func (t *Tailer) Start() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.started || t.stopped {
		return
	}
	t.started = true
	go t.run()
}

// Stop cancels in-flight pulls and blocks until the loop goroutine has
// exited. Safe to call more than once, and before Start.
func (t *Tailer) Stop() {
	t.mu.Lock()
	wasStarted := t.started
	alreadyStopped := t.stopped
	t.stopped = true
	t.mu.Unlock()
	if alreadyStopped {
		if wasStarted {
			<-t.done
		}
		return
	}
	t.cancel()
	if wasStarted {
		<-t.done
	}
}

func (t *Tailer) run() {
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case <-ticker.C:
			t.SyncOnce(t.ctx)
		}
	}
}

// SyncOnce performs one full poll round: every peer is pulled until its
// backlog drains (or the per-tick round cap trips). It is also the
// blocking initial sync a booting replica runs before serving traffic.
func (t *Tailer) SyncOnce(ctx context.Context) {
	for _, peer := range t.cfg.Peers {
		if ctx.Err() != nil {
			return
		}
		t.pullPeer(ctx, peer)
	}
}

// Peers reports the per-peer replication status, sorted as configured.
func (t *Tailer) Peers() []PeerStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]PeerStatus, 0, len(t.cfg.Peers))
	for _, p := range t.cfg.Peers {
		out = append(out, *t.status[p])
	}
	return out
}

// Status returns one peer's replication health by address; ok is false
// for an address the tailer is not configured with. Metric gauges read
// through this at scrape time.
func (t *Tailer) Status(addr string) (PeerStatus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.status[addr]
	if !ok {
		return PeerStatus{}, false
	}
	return *st, true
}

func (t *Tailer) pullPeer(ctx context.Context, peer string) {
	// One trace per drain: every pull round of this tick shares a trace id
	// (with a fresh span id per request), so the peer's request log shows
	// which pulls belonged to one catch-up pass.
	tc := obs.MintTraceContext()
	for round := 0; round < maxRoundsPerTick; round++ {
		resp, err := t.pullOnce(ctx, peer, tc)
		if err != nil {
			t.recordError(peer, err)
			return
		}
		if resp.Behind {
			t.cfg.Log.Printf("behind peer %s (%s): adopting folded state (%d origins, %d tail records)",
				peer, resp.Origin, len(resp.State.Origins), len(resp.State.Tail))
			if err := t.cfg.Local.AdoptState(resp.State); err != nil {
				t.recordError(peer, err)
				return
			}
			t.bump(peer, resp, 0, true)
			continue // re-pull: the peer's tail applies as a normal batch
		}
		applied := 0
		if len(resp.Records) > 0 {
			if applied, err = t.cfg.Local.ApplyRemote(resp.Records); err != nil {
				t.recordError(peer, err)
				return
			}
		}
		t.bump(peer, resp, applied, false)
		if !resp.More {
			// Round complete: everything the peer had is applied, so its
			// reported clock is safe to fold against.
			t.cfg.Local.NoteOriginClock(resp.Origin, resp.LC)
			return
		}
	}
}

func (t *Tailer) pullOnce(ctx context.Context, peer string, tc obs.TraceContext) (*PullResponse, error) {
	u := PullURL(peer, t.cfg.Local.ReplicaID(), t.cfg.Local.AppliedVector(), t.cfg.BatchLimit)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(obs.TraceparentHeader, tc.Child().Header())
	httpResp, err := t.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	resp, err := ReadPull(httpResp)
	if err != nil {
		return nil, fmt.Errorf("pull %s: %w", peer, err)
	}
	return resp, nil
}

func (t *Tailer) bump(peer string, resp *PullResponse, applied int, catchUp bool) {
	local := t.cfg.Local.AppliedVector()
	var behind uint64
	for o, seq := range resp.Vector {
		if seq > local[o] {
			behind += seq - local[o]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.status[peer]
	st.Origin = resp.Origin
	st.LastContact = time.Now()
	st.LastError = ""
	st.RecordsBehind = behind
	st.Pulls++
	st.RecordsPulled += uint64(applied)
	if catchUp {
		st.CatchUps++
	}
}

func (t *Tailer) recordError(peer string, err error) {
	if t.ctx.Err() != nil {
		return // shutting down: cancellation noise, not peer health
	}
	t.cfg.Log.Printf("pull %s: %v", peer, err)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status[peer].LastError = err.Error()
}
