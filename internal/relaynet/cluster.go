package relaynet

// Cluster-facing surface of the presence server: the state handoff that
// backs graceful drain/live resharding (internal/cluster), plus mis-route
// accounting so operators can see traffic that arrived at a shard the ring
// no longer assigns it (stale epochs in some routing party).

import "d2dhb/internal/cluster"

// SetCluster makes the server cluster-aware: selfID is this shard's ring
// identity and client tracks the cluster config. Heartbeats whose source
// hashes to a different shard under the current epoch are still accepted
// (availability beats placement — a stale-epoch relay must not lose
// heartbeats) but counted in Stats().Misrouted and the
// relaynet_server_misrouted_frames_total counter. Call before Start.
func (s *Server) SetCluster(selfID string, client *cluster.Client) {
	s.selfID = selfID
	s.clusterClient = client
}

// ExportPresence implements cluster.Store: a snapshot of every tracked
// client's presence row and delivered-sequence high-water mark. It is
// sized once, for the clients the stripes hold when it starts, and each
// entry's ID aliases its stripe's arena: a drain of a large shard neither
// grows the snapshot by copying nor copies an ID.
func (s *Server) ExportPresence() []cluster.PresenceEntry {
	total, _ := s.presenceOccupancy()
	out := make([]cluster.PresenceEntry, 0, total)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for p := range sh.n {
			if r := sh.at(p); r.live {
				out = append(out, cluster.PresenceEntry{
					ID:               sh.ids.str(r.id),
					App:              sh.apps[r.app],
					LastSeenUnixNano: r.lastSeen,
					DeadlineUnixNano: r.deadline,
					MaxSeq:           r.maxSeq,
				})
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// ImportPresence implements cluster.Store: entries merge into the table,
// never regressing state this shard already holds — the later lastSeen and
// deadline win, and the sequence high-water only ratchets up. A heartbeat
// that raced ahead of the handoff therefore keeps its effect.
func (s *Server) ImportPresence(entries []cluster.PresenceEntry) {
	for _, e := range entries {
		if e.ID == "" {
			continue
		}
		sh, r, _ := s.lockRow(e.ID)
		if r.app == 0 {
			r.app = sh.app(e.App)
		}
		r.lastSeen = max(r.lastSeen, e.LastSeenUnixNano)
		r.deadline = max(r.deadline, e.DeadlineUnixNano)
		r.maxSeq = max(r.maxSeq, e.MaxSeq)
		sh.mu.Unlock()
	}
}

// ForgetPresence implements cluster.Store: drops clients whose keys were
// handed to another shard, keeping this shard's occupancy gauges truthful.
// A heartbeat decoded before the handoff may still name a freed row by
// handle; touch finds the row no longer holds its source — free, or taken
// by another client — and goes back through the index, which starts a
// fresh row.
func (s *Server) ForgetPresence(ids []string) {
	for _, id := range ids {
		h, sh, _ := s.hash(id)
		sh.mu.Lock()
		if p, ok := sh.find(id, h); ok {
			sh.remove(h, p)
		}
		sh.mu.Unlock()
	}
}

// misroutedLocked reports whether a delivery for r reached the wrong shard
// under the current ring epoch (r's stripe locked). The ring is hashed once
// per client per view: a view is immutable and a newer one has a higher
// epoch, so the verdict stands until the cluster client swaps in the next.
func (s *Server) misroutedLocked(r *row, src string) bool {
	if s.clusterClient == nil {
		return false
	}
	view := s.clusterClient.View()
	if e := uint32(view.Epoch() + 1); r.routed != e {
		r.routed, r.misrouted = e, view.Ring().Owner(src) != s.selfID
	}
	return r.misrouted
}
