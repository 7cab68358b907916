// Package report renders experiment results — a facade run keyed on the
// qt facade's unified per-iteration telemetry schema, and an ensemble
// reduction — as human tables (text), machine-readable JSON, or CSV, so
// qtsim, qtd and the examples share one set of formats keyed on one
// schema.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Format selects an output encoding.
type Format int

const (
	Text Format = iota
	JSON
	CSV
)

func (f Format) String() string {
	switch f {
	case JSON:
		return "json"
	case CSV:
		return "csv"
	default:
		return "text"
	}
}

// ContentType returns the HTTP media type of the encoding — the
// Content-Type header qtd pairs with Write when a report is a response
// body.
func (f Format) ContentType() string {
	switch f {
	case JSON:
		return "application/json"
	case CSV:
		return "text/csv"
	default:
		return "text/plain; charset=utf-8"
	}
}

// SSE writes one server-sent event frame, "event: <name>" with a
// JSON-encoded data line — the wire form of qtd's live telemetry stream
// (one frame per IterStats, then a terminal frame with the summary).
func SSE(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// ParseFormat maps the command-line spelling to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text", "":
		return Text, nil
	case "json":
		return JSON, nil
	case "csv":
		return CSV, nil
	}
	return Text, fmt.Errorf("report: unknown format %q (want text, json, or csv)", s)
}

// Encoder is a report that renders itself as text and CSV; JSON comes
// from the value's own marshalling.
type Encoder interface {
	Text(w io.Writer) error
	CSV(w io.Writer) error
}

// Write renders the report in the requested format.
func Write(w io.Writer, f Format, r Encoder) error {
	switch f {
	case JSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	case CSV:
		return r.CSV(w)
	default:
		return r.Text(w)
	}
}

// fmtBytes renders a byte count with binary-prefix units.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func itoa(v int) string     { return strconv.Itoa(v) }
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
