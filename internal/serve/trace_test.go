package serve

import (
	"strings"
	"testing"
)

func TestParseTraceBasic(t *testing.T) {
	in := `
# comment line
net_idx,inject_time_us,network,num_inputs
1, 0, alexnet, 1
2,100.5,ResNet-50,2   # trailing comment
3,100.5,darknet19,4
`
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 3 {
		t.Fatalf("parsed %d requests, want 3", len(tr.Requests))
	}
	r := tr.Requests[1]
	if r.NetIdx != 2 || r.InjectUS != 100.5 || r.Model != "resnet50" || r.Inputs != 2 {
		t.Errorf("request 2 = %+v", r)
	}
	if r.Line != 5 {
		t.Errorf("request 2 line = %d, want 5", r.Line)
	}
	if got := tr.Models(); len(got) != 3 || got[0] != "alexnet" || got[1] != "resnet50" || got[2] != "darknet19" {
		t.Errorf("Models() = %v", got)
	}
	if tr.Inputs() != 7 {
		t.Errorf("Inputs() = %d, want 7", tr.Inputs())
	}
}

func TestParseTraceHeaderOnlyFirst(t *testing.T) {
	// The header is only recognized as the first content line; later it is a
	// malformed request.
	in := "1,0,alexnet,1\nnet_idx,inject_time_us,network,num_inputs\n"
	_, err := ParseTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file header not rejected with its line: %v", err)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		name, in, wantLine, wantMsg string
	}{
		{"non-monotone", "1,100,alexnet,1\n2,50,alexnet,1\n", "line 2", "decreases"},
		{"zero inputs", "1,0,alexnet,0\n", "line 1", "num_inputs"},
		{"negative inputs", "1,0,alexnet,-3\n", "line 1", "num_inputs"},
		{"unknown model", "1,0,lenet,1\n", "line 1", "unknown model"},
		{"field count", "1,0,alexnet\n", "line 1", "4 comma-separated fields"},
		{"bad net_idx", "x,0,alexnet,1\n", "line 1", "net_idx"},
		{"zero net_idx", "0,0,alexnet,1\n", "line 1", "net_idx"},
		{"duplicate net_idx", "7,0,alexnet,1\n7,10,alexnet,1\n", "line 2", "duplicate net_idx 7"},
		{"negative inject", "1,-5,alexnet,1\n", "line 1", "inject_time_us"},
		{"nan inject", "1,NaN,alexnet,1\n", "line 1", "inject_time_us"},
		{"bad inject", "1,zzz,alexnet,1\n", "line 1", "inject_time_us"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("input %q accepted", c.in)
			}
			if !strings.Contains(err.Error(), c.wantLine) || !strings.Contains(err.Error(), c.wantMsg) {
				t.Errorf("error %q missing %q or %q", err, c.wantLine, c.wantMsg)
			}
		})
	}
	if _, err := ParseTrace(strings.NewReader("# only comments\n")); err == nil ||
		!strings.Contains(err.Error(), "empty trace") {
		t.Errorf("empty trace error = %v", err)
	}
}

func TestReferenceTraceDeterministic(t *testing.T) {
	a := ReferenceTrace(50, 1000)
	b := ReferenceTrace(50, 1000)
	if len(a.Requests) != 50 || len(b.Requests) != 50 {
		t.Fatalf("lengths %d/%d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
		if a.Requests[i].Inputs < 1 || a.Requests[i].Inputs > 4 {
			t.Errorf("request %d inputs %d outside 1..4", i, a.Requests[i].Inputs)
		}
		if i > 0 && a.Requests[i].InjectUS < a.Requests[i-1].InjectUS {
			t.Errorf("request %d not time-ordered", i)
		}
	}
}
