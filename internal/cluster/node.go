package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"d2dhb/internal/telemetry"
)

// NodeAgent is the shard-side half of the drain/handoff protocol: an HTTP
// handler mounted on the shard's telemetry server that lets the router
// snapshot the shard's presence state, import a departing peer's state, and
// flip its /readyz for a drain (the shard keeps serving until it stops).
type NodeAgent struct {
	store  Store
	health *telemetry.Health
}

// NewNodeAgent wires a presence store (relaynet.Server) and the shard's
// health state together.
func NewNodeAgent(store Store, health *telemetry.Health) *NodeAgent {
	return &NodeAgent{store: store, health: health}
}

// Handler returns the /cluster/* handler block:
//
//	GET  /cluster/snapshot  JSON []PresenceEntry (the full client table)
//	POST /cluster/import    JSON []PresenceEntry, merged into the table
//	POST /cluster/forget    JSON []string of client IDs to drop
//	POST /cluster/draining?v=true|false
//
// Mount it with telemetry.WithHandler("/cluster/", agent.Handler()).
func (a *NodeAgent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.store.ExportPresence())
	})
	mux.HandleFunc("/cluster/import", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var entries []PresenceEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a.store.ImportPresence(entries)
		fmt.Fprintf(w, "imported %d\n", len(entries))
	})
	mux.HandleFunc("/cluster/forget", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var ids []string
		if err := json.Unmarshal(data, &ids); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a.store.ForgetPresence(ids)
		fmt.Fprintf(w, "forgot %d\n", len(ids))
	})
	mux.HandleFunc("/cluster/draining", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		v, err := strconv.ParseBool(r.URL.Query().Get("v"))
		if err != nil {
			http.Error(w, "bad v parameter", http.StatusBadRequest)
			return
		}
		if a.health != nil {
			a.health.SetReady(!v)
		}
		fmt.Fprintf(w, "draining=%v\n", v)
	})
	return mux
}

// maxSnapshotBytes bounds a handoff body: ~190 bytes/entry JSON puts one
// million clients around 190 MB; 256 MB leaves headroom without letting a
// confused peer stream forever.
const maxSnapshotBytes = 256 << 20
