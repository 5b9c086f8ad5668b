package broker

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/pacing"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// state renders everything a client can read of b, bit for bit.
func state(b *Broker) string { return fmt.Sprintf("%#v\n%#v", b.Stats(), b.Campaigns()) }

// TestClosedBrokerRefusesMutations: after Close every mutator answers
// ErrUnavailable and changes nothing, and a reopen finds the state Close
// left — none of the refused mutations, and the open offer still open.
func TestClosedBrokerRefusesMutations(t *testing.T) {
	ctl := pacing.Default()
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: t.TempDir(), Controller: &ctl}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{Loc: geo.Point{X: 0.5, Y: 0.5}, Radius: 0.2, Budget: 10, Tags: []float64{1, 0, 0.5},
		Billing: model.Billing{Model: model.BillingCPC, ReserveECPM: 1, EventRate: 0.5}}
	id, err := b.RegisterCampaignSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	a := Arrival{Loc: spec.Loc, Capacity: 1, ViewProb: 0.8, Interests: spec.Tags, Hour: 12}
	offers, err := b.Arrive(a)
	if err != nil || len(offers) != 1 || offers[0].ID == 0 {
		t.Fatalf("arrival before Close: %v, %+v; want one escrowed offer", err, offers)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	closed := state(b)
	refused := map[string]error{}
	_, refused["register"] = b.RegisterCampaignSpec(spec)
	refused["top-up"] = b.TopUp(id, 5)
	refused["pause"] = b.SetPaused(id, true)
	_, refused["arrive"] = b.Arrive(a)
	refused["batch"] = b.ArriveBatch([]Arrival{a, a})[1].Err
	_, refused["convert"] = b.Convert(offers[0].ID, "k")
	_, refused["pacing step"] = b.PacingStep()
	for name, err := range refused {
		if !errors.Is(err, ErrUnavailable) || !errors.Is(err, wal.ErrClosed) {
			t.Errorf("%s on a closed broker: %v, want ErrUnavailable wrapping wal.ErrClosed", name, err)
		}
	}
	if !errors.Is(b.Err(), wal.ErrClosed) {
		t.Errorf("Err after Close = %v", b.Err())
	}
	if got := state(b); got != closed {
		t.Errorf("a refused mutation changed the closed broker:\n%s\nwant\n%s", got, closed)
	}
	b2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := state(b2); got != closed {
		t.Errorf("reopened state:\n%s\nwant the state Close left:\n%s", got, closed)
	}
	if _, err := b2.Convert(offers[0].ID, "k"); err != nil {
		t.Errorf("converting the offer after the reopen: %v", err)
	}
}

// lockedBuffer is a log sink the snapshot loop and the test share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRotationFaultKeepsServing is the other half of the failure policy: a
// snapshot rotation that fails — here a directory squats on a name it must
// create, so the open fails with EISDIR — is logged and returned, but the
// active segment stays the durable truth, so the broker keeps taking writes
// and a recovery from the old pair is bit-exact.
func TestRotationFaultKeepsServing(t *testing.T) {
	for _, obstacle := range []string{"snapshot.tmp", "next segment"} {
		t.Run(obstacle, func(t *testing.T) {
			var logs lockedBuffer
			cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: t.TempDir(),
				WAL: wal.Options{Sync: wal.SyncEveryRecord, SnapshotEvery: 1}}
			cfg.Logger = slog.New(slog.NewJSONHandler(&logs, nil))
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := obstacle
			if obstacle == "next segment" {
				segs, err := filepath.Glob(filepath.Join(cfg.DataDir, "wal-*.log"))
				var seq uint64
				if err != nil || len(segs) != 1 {
					t.Fatalf("active segments %v (%v), want one", segs, err)
				}
				if _, err := fmt.Sscanf(filepath.Base(segs[0]), "wal-%016x.log", &seq); err != nil {
					t.Fatal(err)
				}
				name = fmt.Sprintf("wal-%016x.log", seq+1)
			}
			if err := os.Mkdir(filepath.Join(cfg.DataDir, name), 0o755); err != nil {
				t.Fatal(err)
			}
			// The registration's record nudges the snapshot loop, whose
			// rotation fails.
			id, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 10, []float64{1, 0, 0.5})
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logs.String(), `"msg":"broker_snapshot_failed"`); {
				if time.Now().After(deadline) {
					t.Fatalf("no broker_snapshot_failed event; log:\n%s", logs.String())
				}
				time.Sleep(time.Millisecond)
			}
			if err := b.Err(); err != nil {
				t.Fatalf("a rotation fault made the broker read-only: %v", err)
			}
			if err := b.TopUp(id, 5); err != nil {
				t.Fatalf("top-up after the rotation fault: %v", err)
			}
			if err := b.snapshotNow(); !errors.Is(err, syscall.EISDIR) {
				t.Fatalf("snapshotNow = %v, want EISDIR", err)
			}
			want := state(b)
			if err := b.Close(); !errors.Is(err, syscall.EISDIR) {
				t.Fatalf("Close = %v, want EISDIR", err)
			}
			if err := os.Remove(filepath.Join(cfg.DataDir, name)); err != nil {
				t.Fatal(err)
			}
			b2, ev, _ := bootLogged(t, cfg)
			defer b2.Close()
			if got, n := state(b2), ev.RecordsReplayed; got != want || n != 2 {
				t.Errorf("recovered from the old pair with %d records replayed:\n%s\nwant 2 and\n%s", n, got, want)
			}
		})
	}
}

// TestSnapshotCadence pins when walAppend nudges the snapshot loop: at every
// SnapshotEvery-th record of the active segment. A successful rotation
// starts a new segment; a failed one (a directory squats on snapshot.tmp)
// keeps the segment, so the next attempt comes SnapshotEvery records later,
// not on every append. The test stops the loop and plays it, taking each
// nudge as it is sent.
func TestSnapshotCadence(t *testing.T) {
	const every = 3
	cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: t.TempDir(),
		WAL: wal.Options{Sync: wal.SyncNone, SnapshotEvery: every}}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := b.wal
	close(d.stopCh)
	<-d.doneCh
	d.stopCh, d.doneCh = make(chan struct{}), make(chan struct{})
	close(d.doneCh) // Close finds the loop stopped
	id, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 10, []float64{1, 0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	obstacle := filepath.Join(cfg.DataDir, "snapshot.tmp")
	for rec := 2; rec <= 8*every; rec++ {
		failing := rec > 3*every
		if rec == 3*every+1 {
			if err := os.Mkdir(obstacle, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.TopUp(id, 1); err != nil {
			t.Fatalf("record %d: %v", rec, err)
		}
		nudged := len(d.snapCh) == 1
		if nudged != (rec%every == 0) {
			t.Fatalf("record %d (rotations failing: %v): nudged %v", rec, failing, nudged)
		}
		if nudged {
			<-d.snapCh
			if err := b.snapshotNow(); (err != nil) != failing {
				t.Fatalf("record %d: snapshot = %v, want failing %v", rec, err, failing)
			}
		}
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}
