package mds

import "cogrid/internal/wire"

// A published Record, a query's Filter and the query's reply are written
// and read by hand, in exactly encoding/json's bytes (see wire.JSON).

// AppendJSON appends rec as json.Marshal writes it.
func (rec Record) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &rec, (*Record).json) }

// ParseJSON reads what AppendJSON writes into rec, as json.Unmarshal would.
func (rec *Record) ParseJSON(src []byte) bool { return wire.ParseJSON(src, rec, (*Record).json) }

func (rec *Record) json(j *wire.JSON) {
	j.String("name", &rec.Name)
	j.String("contact", &rec.Contact)
	j.Int("processors", &rec.Processors)
	j.String("mode", &rec.Mode)
	j.Int("free_processors", &rec.FreeProcessors)
	j.Int("running_jobs", &rec.RunningJobs)
	j.Int("queued_jobs", &rec.QueuedJobs)
	j.DurationMap("forecast_wait,omitempty", &rec.ForecastWait)
	j.Duration("updated_at", &rec.UpdatedAt)
}

// AppendJSON appends f as json.Marshal writes it.
func (f Filter) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &f, (*Filter).json) }

// ParseJSON reads what AppendJSON writes into f, as json.Unmarshal would.
func (f *Filter) ParseJSON(src []byte) bool { return wire.ParseJSON(src, f, (*Filter).json) }

func (f *Filter) json(j *wire.JSON) {
	j.Int("min_processors,omitempty", &f.MinProcessors)
	j.Int("min_free,omitempty", &f.MinFree)
	j.String("mode,omitempty", &f.Mode)
	j.Duration("max_age,omitempty", &f.MaxAge)
}

// recordList is a query's reply: the whole matching directory, every
// record with its forecasts.
type recordList []Record

func (l recordList) AppendJSON(dst []byte) []byte {
	return wire.AppendJSONList(dst, l, (*Record).json)
}

func (l *recordList) ParseJSON(src []byte) bool {
	return wire.ParseJSONList(src, (*[]Record)(l), (*Record).json)
}
