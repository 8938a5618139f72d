package experiments

import (
	"math/rand"
	"time"

	"d2dhb/internal/hbmsg"
	"d2dhb/internal/metrics"
)

// Table1Row compares one app's generated heartbeat share against Table I.
type Table1Row struct {
	App      string
	Paper    float64 // heartbeat share reported in Table I
	Measured float64 // share in the generated traffic
	AbsErr   float64
}

// Table1Result reproduces Table I: the proportion of heartbeats in the
// total message count of popular IM apps.
type Table1Result struct {
	Rows  []Table1Row
	Table *metrics.Table
}

// Blocks prints Table I.
func (r *Table1Result) Blocks() ([][]Block, error) { return one(tableBlock(r.Table)) }

// Table1 generates one week of traffic per app profile and measures the
// heartbeat share.
func Table1(seed int64) (*Table1Result, error) {
	const horizon = 7 * 24 * time.Hour
	rng := rand.New(rand.NewSource(seed))
	res := &Table1Result{
		Table: metrics.NewTable(
			"Table I: proportion of heartbeats in popular apps",
			"App", "Paper", "Measured", "AbsErr"),
	}
	for _, p := range hbmsg.Apps() {
		counts, err := p.GenerateTraffic(horizon, rng)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			App:      p.Name,
			Paper:    p.HeartbeatShare,
			Measured: counts.HeartbeatShare(),
		}
		row.AbsErr = p.ExpectedShareError(counts)
		res.Rows = append(res.Rows, row)
		res.Table.AddRow(p.Name, metrics.Pct(row.Paper), metrics.Pct(row.Measured), metrics.Pct(row.AbsErr))
	}
	return res, nil
}
