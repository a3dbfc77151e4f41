package core

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"cogrid/internal/gram"
	"cogrid/internal/rsl"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// oldSubjobRSL is subjobRSL as it was before it was written into one
// buffer: the conjunction built as an rsl tree and printed by the tree's
// own String, the printer the writer must match byte for byte.
func oldSubjobRSL(j *Job, sj *subjob) string {
	node := rsl.Conj(
		[2]string{"executable", sj.spec.Executable},
		[2]string{"count", strconv.Itoa(sj.spec.Count)},
	)
	if sj.spec.MaxTime > 0 {
		node.Children = append(node.Children, &rsl.Relation{
			Attribute: "maxTime", Op: rsl.OpEq,
			Value: rsl.Literal(strconv.Itoa(int(sj.spec.MaxTime / time.Minute))),
		})
	}
	if sj.spec.ReservationID != "" {
		node.Children = append(node.Children, &rsl.Relation{
			Attribute: "reservationID", Op: rsl.OpEq,
			Value: rsl.Literal(sj.spec.ReservationID),
		})
	}
	env := rsl.Seq{
		rsl.Literal(EnvContact), rsl.Literal(j.c.Contact().String()),
		rsl.Literal(EnvJob), rsl.Literal(j.id),
		rsl.Literal(EnvSubjob), rsl.Literal(sj.spec.Label),
	}
	if sj.ctx.Valid() {
		env = append(env, rsl.Literal(EnvTrace), rsl.Literal(sj.ctx.String()))
	}
	node.Children = append(node.Children, &rsl.Relation{
		Attribute: "environment", Op: rsl.OpEq,
		Value: env,
	})
	return node.String()
}

// rslJob is a job on a controller whose host is named host, enough for
// subjobRSL.
func rslJob(host, id string) *Job {
	net := transport.New(vtime.New(), transport.UniformLatency(time.Millisecond))
	return &Job{c: &Controller{host: net.AddHost(host)}, id: id}
}

// The subjob writer prints what the rsl printer prints for every value
// that needs quoting, with and without a trace context, a time limit and
// a reservation, and past its stack buffer.
func TestSubjobRSLEqualsPrinter(t *testing.T) {
	long := strings.Repeat(`ab"c `, 150)
	jobs := []*Job{rslJob("ws", "ws:duroc/coalloc1"), rslJob(`w "s"`, `*job 1`), rslJob("*", "")}
	specs := []SubjobSpec{
		{Label: "sj0", Executable: "app", Count: 8},
		{Label: "", Executable: "", Count: 0},
		{Label: "*lead", Executable: "*", Count: -3, MaxTime: 90 * time.Minute},
		{Label: `a "quoted" label`, Executable: `my app`, Count: 1, MaxTime: 30 * time.Second},
		{Label: `"`, Executable: `""`, Count: 2, ReservationID: `res "7"`},
		{Label: "x|y", Executable: "a*b", Count: 4, MaxTime: time.Hour, ReservationID: "r1"},
		{Label: long, Executable: long, Count: 1 << 40, ReservationID: long},
	}
	ctxs := []trace.Ctx{{}, {Req: "r1", Span: "req/sj0"}, {Req: `q"q`, Span: "*s|t"}, {Req: long, Span: long}}
	for _, j := range jobs {
		for _, spec := range specs {
			for _, ctx := range ctxs {
				sj := &subjob{spec: spec, ctx: ctx}
				got, want := j.subjobRSL(sj), oldSubjobRSL(j, sj)
				if got != want {
					t.Fatalf("host %q job %q spec %+v ctx %+v:\nwriter  %s\nprinter %s", j.c.host.Name(), j.id, spec, ctx, got, want)
				}
			}
		}
	}
}

// A DUROC subjob's request is written in one allocation, the string, and
// the gatekeeper parses it into a job spec in 19 (measured). Writing took
// 33 while it built a tree to print it; parsing took 29 while every quoted
// string was copied, the conjunction and the environment grew from nil
// and the attribute map was built once per attribute read.
func TestSubjobRSLAllocations(t *testing.T) {
	j := rslJob("ws", "ws:duroc/coalloc17")
	sj := &subjob{
		spec: SubjobSpec{Label: "sj3", Executable: "app", Count: 8},
		ctx:  trace.Ctx{Req: "ws:duroc/coalloc17", Span: "req/sj3"},
	}
	src := j.subjobRSL(sj)
	if n := testing.AllocsPerRun(100, func() { j.subjobRSL(sj) }); n != 1 {
		t.Errorf("subjobRSL allocates %v times, want 1", n)
	}
	spec, err := gram.ParseJobRSL(src)
	if err != nil {
		t.Fatalf("ParseJobRSL(%s): %v", src, err)
	}
	if spec.Executable != "app" || spec.Count != 8 || spec.Env[EnvTrace] != "ws:duroc/coalloc17|req/sj3" || spec.Env[EnvSubjob] != "sj3" {
		t.Errorf("ParseJobRSL(%s) = %+v", src, spec)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := gram.ParseJobRSL(src); err != nil {
			t.Fatal(err)
		}
	})
	if n > 20 {
		t.Errorf("ParseJobRSL of a DUROC subjob's request allocates %v times, want at most 20", n)
	}
}

// oldReadiness is Readiness as it was before the lists shared one
// allocation and Commit stopped building them: the oracle for both.
func oldReadiness(j *Job) CommitReadiness {
	r := CommitReadiness{Ready: true}
	for _, sj := range j.subjobs {
		if sj.spec.Type == Optional || sj.status == SJDeleted {
			continue
		}
		switch sj.status {
		case SJCheckedIn:
			r.CheckedIn = append(r.CheckedIn, sj.spec.Label)
		case SJFailed:
			r.Failed = append(r.Failed, sj.spec.Label)
			r.Ready = false
		default:
			r.Waiting = append(r.Waiting, sj.spec.Label)
			r.Ready = false
		}
	}
	if len(r.CheckedIn) == 0 {
		r.Ready = false
	}
	if j.c.cfg.Bugs.DoubleCommit && len(r.CheckedIn) > 0 {
		r.Ready = true
	}
	return r
}

// readinessJob builds a job whose subjobs have the given types and
// statuses, labelled by position.
func readinessJob(doubleCommit bool, types []SubjobType, statuses []SubjobStatus) *Job {
	j := &Job{c: &Controller{cfg: ControllerConfig{Bugs: Bugs{DoubleCommit: doubleCommit}}}}
	for i := range types {
		j.subjobs = append(j.subjobs, &subjob{spec: SubjobSpec{Label: "sj" + strconv.Itoa(i), Type: types[i]}, status: statuses[i]})
	}
	return j
}

func TestReadiness(t *testing.T) {
	R, I, O := Required, Interactive, Optional
	for _, c := range []struct {
		name         string
		double       bool
		types        []SubjobType
		statuses     []SubjobStatus
		ready        bool
		waiting      []string
		failed       []string
		checkedIn    []string
		doubleCommit bool // ready under Bugs.DoubleCommit
	}{
		{name: "no subjobs"},
		{name: "all checked in", types: []SubjobType{R, I}, statuses: []SubjobStatus{SJCheckedIn, SJCheckedIn},
			ready: true, checkedIn: []string{"sj0", "sj1"}, doubleCommit: true},
		{name: "one waiting", types: []SubjobType{R, I}, statuses: []SubjobStatus{SJCheckedIn, SJActive},
			waiting: []string{"sj1"}, checkedIn: []string{"sj0"}, doubleCommit: true},
		{name: "one failed", types: []SubjobType{I, R}, statuses: []SubjobStatus{SJFailed, SJCheckedIn},
			failed: []string{"sj0"}, checkedIn: []string{"sj1"}, doubleCommit: true},
		{name: "failed one deleted", types: []SubjobType{I, R}, statuses: []SubjobStatus{SJDeleted, SJCheckedIn},
			ready: true, checkedIn: []string{"sj1"}, doubleCommit: true},
		{name: "optional ones do not count", types: []SubjobType{O, R, O}, statuses: []SubjobStatus{SJQueued, SJCheckedIn, SJFailed},
			ready: true, checkedIn: []string{"sj1"}, doubleCommit: true},
		{name: "only optional checked in", types: []SubjobType{O}, statuses: []SubjobStatus{SJCheckedIn}},
		{name: "none checked in", types: []SubjobType{R, I}, statuses: []SubjobStatus{SJSubmitted, SJFailed},
			waiting: []string{"sj0"}, failed: []string{"sj1"}},
		{name: "released counts as waiting", types: []SubjobType{R, R}, statuses: []SubjobStatus{SJReleased, SJCheckedIn},
			waiting: []string{"sj0"}, checkedIn: []string{"sj1"}, doubleCommit: true},
	} {
		for _, double := range []bool{false, true} {
			j := readinessJob(double, c.types, c.statuses)
			want := CommitReadiness{Ready: c.ready, Waiting: c.waiting, Failed: c.failed, CheckedIn: c.checkedIn}
			if double {
				want.Ready = c.doubleCommit
			}
			if got := j.Readiness(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, DoubleCommit %v: Readiness %+v, want %+v", c.name, double, got, want)
			}
			if got := j.Ready(); got != want.Ready {
				t.Errorf("%s, DoubleCommit %v: Ready %v, want %v", c.name, double, got, want.Ready)
			}
		}
	}
}

// Readiness and Ready agree with the old Readiness on every job of up to
// three subjobs, each of every type and status, with and without
// Bugs.DoubleCommit; the lists do not share capacity.
func TestReadinessEqualsOldReadiness(t *testing.T) {
	types := []SubjobType{Required, Interactive, Optional}
	statuses := []SubjobStatus{SJQueued, SJSubmitted, SJActive, SJCheckedIn, SJReleased, SJDone, SJFailed, SJDeleted}
	kinds := len(types) * len(statuses)
	for n := 0; n <= 3; n++ {
		combos := 1
		for i := 0; i < n; i++ {
			combos *= kinds
		}
		for code := 0; code < combos; code++ {
			ts, ss := make([]SubjobType, n), make([]SubjobStatus, n)
			for i, c := 0, code; i < n; i, c = i+1, c/kinds {
				ts[i], ss[i] = types[c%kinds/len(statuses)], statuses[c%kinds%len(statuses)]
			}
			for _, double := range []bool{false, true} {
				j := readinessJob(double, ts, ss)
				want, got := oldReadiness(j), j.Readiness()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("types %v statuses %v DoubleCommit %v: Readiness %+v, old %+v", ts, ss, double, got, want)
				}
				if j.Ready() != want.Ready {
					t.Fatalf("types %v statuses %v DoubleCommit %v: Ready %v, old %v", ts, ss, double, j.Ready(), want.Ready)
				}
				for _, l := range [][]string{got.Waiting, got.Failed, got.CheckedIn} {
					if len(l) != cap(l) {
						t.Fatalf("types %v statuses %v: a list has room past its end: %d of %d", ts, ss, len(l), cap(l))
					}
				}
			}
		}
	}
}

// Commit and agent.WithSubstitution read Ready on every wake, which
// allocates nothing; Readiness's lists are one allocation.
func TestReadinessAllocations(t *testing.T) {
	types := []SubjobType{Required, Interactive, Optional, Required}
	statuses := []SubjobStatus{SJCheckedIn, SJActive, SJQueued, SJFailed}
	j := readinessJob(false, types, statuses)
	if n := testing.AllocsPerRun(100, func() { j.Ready() }); n != 0 {
		t.Errorf("Ready allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { j.Readiness() }); n != 1 {
		t.Errorf("Readiness allocates %v times, want 1", n)
	}
}
