package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // host clock, from process start
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for none
	Req     string `json:"req,omitempty"`
}

// spanLog keeps the traced run's spans in memory until exit. A nil log
// records nothing, which is how untraced rounds run.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) begin(name, req string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, StartNs: time.Since(l.epoch).Nanoseconds(), Parent: parent, Req: req})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id].EndNs = time.Since(l.epoch).Nanoseconds()
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
