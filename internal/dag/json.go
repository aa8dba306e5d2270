package dag

import (
	"encoding/json"
	"fmt"
)

// JSON interchange format for workflows, so generated DAGs can be saved,
// inspected, and re-loaded by external tools (and by cmd/wfgen). Virtual
// normalization tasks are not serialized: Build() re-normalizes on load, so
// the round trip is canonical.

type jsonTask struct {
	Name    string  `json:"name"`
	LoadMI  float64 `json:"load_mi"`
	ImageMb float64 `json:"image_mb"`
}

type jsonEdge struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	DataMb float64 `json:"data_mb"`
}

type jsonWorkflow struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges []jsonEdge `json:"edges"`
}

// MarshalJSON encodes the workflow's real tasks and edges. Task indices in
// the encoded edges refer to positions in the encoded task list, which are
// the task IDs: the construction appends virtual tasks after the real ones.
func (w *Workflow) MarshalJSON() ([]byte, error) {
	jw := jsonWorkflow{Name: w.Name}
	for _, t := range w.tasks {
		if !t.Virtual {
			jw.Tasks = append(jw.Tasks, jsonTask{Name: t.Name, LoadMI: t.Load, ImageMb: t.ImageMb})
		}
	}
	for _, e := range w.succ {
		if w.tasks[e.From].Virtual || w.tasks[e.To].Virtual {
			continue // edges to virtual tasks are normalization artifacts
		}
		jw.Edges = append(jw.Edges, jsonEdge{From: int(e.From), To: int(e.To), DataMb: e.DataMb})
	}
	return json.Marshal(jw)
}

// UnmarshalWorkflow decodes a workflow produced by MarshalJSON, running the
// standard validation and normalization.
func UnmarshalWorkflow(data []byte) (*Workflow, error) {
	var jw jsonWorkflow
	if err := json.Unmarshal(data, &jw); err != nil {
		return nil, fmt.Errorf("dag: decode workflow: %w", err)
	}
	if len(jw.Tasks) == 0 {
		return nil, fmt.Errorf("dag: workflow %q has no tasks", jw.Name)
	}
	tasks := make([]Task, len(jw.Tasks), len(jw.Tasks)+2)
	for i, t := range jw.Tasks {
		tasks[i] = Task{ID: TaskID(i), Name: t.Name, Load: t.LoadMI, ImageMb: t.ImageMb}
	}
	edges := make([]Edge, len(jw.Edges))
	for i, e := range jw.Edges {
		if e.From < 0 || e.From >= len(tasks) || e.To < 0 || e.To >= len(tasks) {
			return nil, fmt.Errorf("dag: edge %d->%d out of range", e.From, e.To)
		}
		edges[i] = Edge{From: TaskID(e.From), To: TaskID(e.To), DataMb: e.DataMb}
	}
	return build(jw.Name, tasks, edges)
}
