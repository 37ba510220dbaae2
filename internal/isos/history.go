package isos

import (
	"fmt"

	"geosel/internal/geo"
)

// maxHistory bounds the navigation history per session.
const maxHistory = 64

// histEntry is one remembered navigation state.
type histEntry struct {
	viewport geo.Viewport
	visible  []int
}

// trimHistory drops the oldest entries beyond maxHistory.
func (s *Session) trimHistory() {
	if len(s.history) > maxHistory {
		copy(s.history, s.history[1:])
		s.history = s.history[:maxHistory]
	}
}

// CanBack reports whether a previous navigation state exists.
func (s *Session) CanBack() bool { return len(s.history) > 0 }

// Back restores the previous viewport and its exact selection — the
// map widget's back button. Restoring a past selection verbatim is
// trivially consistent: it was a valid selection for that viewport
// when it was displayed. Back costs no selection work and returns the
// restored Selection (score/eval fields zeroed; the positions are what
// matter). It returns an error when no history exists.
func (s *Session) Back() (*Selection, error) {
	if err := s.requireStarted(); err != nil {
		return nil, err
	}
	if len(s.history) == 0 {
		return nil, fmt.Errorf("isos: no history to go back to")
	}
	// Any prefetched bounds were computed for the viewport being
	// abandoned.
	last := s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	s.viewport = last.viewport
	s.visible = append([]int(nil), last.visible...)
	s.prefetch = nil
	return &Selection{
		Positions:     append([]int(nil), last.visible...),
		RegionObjects: len(s.regionObjects(last.viewport.Region)),
	}, nil
}
