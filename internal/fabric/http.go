package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"casq/internal/sweep"
)

// claimRequest is the POST /fabric/claim body.
type claimRequest struct {
	Worker string `json:"worker"`
}

// claimResponse is the 200 body of a successful claim: the lease, its
// TTL (so the worker knows how often to heartbeat), the cell to run, and
// the owning sweep's trace id — the worker stamps it on every span it
// records for the cell, so a distributed trace stitches together across
// the claim/complete HTTP hops.
type claimResponse struct {
	LeaseID    string     `json:"lease_id"`
	LeaseTTLMS int64      `json:"lease_ttl_ms"`
	Cell       sweep.Cell `json:"cell"`
	TraceID    uint64     `json:"trace_id,omitempty"`

	// sweepCells is the owning sweep's cell count, set only on direct
	// claims: the local worker sizes each cell's executor share by it.
	sweepCells int
}

// heartbeatRequest is the POST /fabric/heartbeat body.
type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

// completeRequest is the POST /fabric/complete body. State must be a
// terminal sweep.CellState: cached, computed, or failed.
type completeRequest struct {
	LeaseID string          `json:"lease_id"`
	State   sweep.CellState `json:"state"`
	Error   string          `json:"error,omitempty"`
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSONError(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	return true
}

func writeJSONError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeJSONError(w, http.StatusBadRequest, "claim: worker id required")
		return
	}
	leaseID, cell, traceID, ok := c.claim(req.Worker, time.Now())
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(claimResponse{
		LeaseID: leaseID, LeaseTTLMS: c.leaseTTL.Milliseconds(), Cell: cell, TraceID: traceID,
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := c.heartbeat(req.LeaseID, time.Now()); err != nil {
		writeJSONError(w, http.StatusGone, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if err := c.complete(req.LeaseID, req.State, req.Error, time.Now()); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrLeaseGone) {
			status = http.StatusGone
		}
		writeJSONError(w, status, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
