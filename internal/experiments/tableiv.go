package experiments

import (
	"fmt"

	"snap1/internal/kbgen"
	"snap1/internal/nlu"
	"snap1/internal/timing"
)

// TableIVRow is one sentence's execution-time breakdown: the serial
// phrasal-parser time (independent of knowledge-base size) and the
// memory-based parser time at the 5K- and 9K-node knowledge bases, as in
// the paper's Table IV.
type TableIVRow struct {
	ID     string
	Text   string
	Words  int
	PPTime timing.Time
	MB5K   timing.Time
	MB9K   timing.Time
	Instr  int // SNAP instructions executed at the 9K knowledge base
}

// TableIVResult is the regenerated Table IV.
type TableIVResult struct {
	Rows []TableIVRow
}

// TableIV parses the four evaluation sentences against 5K- and 9K-node
// knowledge bases on the 16-cluster evaluation configuration.
func TableIV() (*TableIVResult, error) {
	type pass struct {
		nodes int
		res   []*nlu.ParseResult
	}
	passes := []pass{{nodes: 5000}, {nodes: 9000}}
	for i := range passes {
		m, g, err := nluSetup(passes[i].nodes, 16, paperConfig())
		if err != nil {
			return nil, err
		}
		p := nlu.NewParser(m, g)
		_, res, err := parseBatch(p, g, 1)
		if err != nil {
			return nil, err
		}
		passes[i].res = res
	}

	out := &TableIVResult{}
	sentences := kbgen.EvaluationSentences()
	for i, r5 := range passes[0].res {
		r9 := passes[1].res[i]
		s := sentences[i]
		out.Rows = append(out.Rows, TableIVRow{
			ID:     s.ID,
			Text:   s.Text,
			Words:  len(s.Words),
			PPTime: r5.PPTime,
			MB5K:   r5.MBTime,
			MB9K:   r9.MBTime,
			Instr:  r9.Instructions,
		})
	}
	return out, nil
}

// String renders the regenerated table.
func (t *TableIVResult) String() string {
	header := []string{"Input", "Words", "P.P. time", "M.B. time (5K)", "M.B. time (9K)", "Total (9K)", "Instrs"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.ID,
			fmt.Sprint(r.Words),
			r.PPTime.String(),
			r.MB5K.String(),
			r.MB9K.String(),
			(r.PPTime + r.MB9K).String(),
			fmt.Sprint(r.Instr),
		})
	}
	return "Table IV: execution times for newswire sentence parsing\n" + table(header, rows)
}
