package gram

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/rsl"
)

// oldJobSpecFromNode is JobSpecFromNode as it was before it flattened the
// conjunction once: every attribute read through rsl.GetString or
// rsl.GetInt, each of which flattens it again.
func oldJobSpecFromNode(node rsl.Node) (lrm.JobSpec, error) {
	spec := lrm.JobSpec{}
	exe, ok, err := rsl.GetString(node, "executable", nil)
	if err != nil || !ok {
		return spec, fmt.Errorf("%w: missing executable (%v)", ErrBadRSL, err)
	}
	spec.Executable = exe
	count, ok, err := rsl.GetInt(node, "count", nil)
	if err != nil || !ok {
		return spec, fmt.Errorf("%w: missing or bad count (%v)", ErrBadRSL, err)
	}
	spec.Count = count
	if minutes, ok, err := rsl.GetInt(node, "maxTime", nil); err != nil {
		return spec, fmt.Errorf("%w: bad maxTime (%v)", ErrBadRSL, err)
	} else if ok {
		spec.TimeLimit = time.Duration(minutes) * time.Minute
	}
	if resID, ok, err := rsl.GetString(node, "reservationID", nil); err != nil {
		return spec, fmt.Errorf("%w: bad reservationID (%v)", ErrBadRSL, err)
	} else if ok {
		spec.ReservationID = resID
	}
	if env, ok := rsl.Attributes(node)["environment"]; ok {
		seq, isSeq := env.(rsl.Seq)
		if !isSeq || len(seq)%2 != 0 {
			return spec, fmt.Errorf("%w: environment must be a sequence of name value pairs", ErrBadRSL)
		}
		spec.Env = make(map[string]string, len(seq)/2)
		for i := 0; i < len(seq); i += 2 {
			k, err := rsl.Eval(seq[i], nil)
			if err != nil {
				return spec, fmt.Errorf("%w: %v", ErrBadRSL, err)
			}
			v, err := rsl.Eval(seq[i+1], nil)
			if err != nil {
				return spec, fmt.Errorf("%w: %v", ErrBadRSL, err)
			}
			spec.Env[k] = v
		}
	}
	return spec, nil
}

// Reading every attribute from one flattened map gives the spec, or the
// error, that reading each through rsl gave: attribute names in any case,
// a repeated attribute, a nested conjunction, operators other than =,
// variable references, and each attribute missing or malformed.
func TestJobSpecFromNodeEqualsOld(t *testing.T) {
	for _, src := range []string{
		`&(executable=w)(count=4)`,
		`&(EXECUTABLE=w)(Count=4)(MAXTIME=15)(ReservationId="r 1")(environment=(A "b c" D e))`,
		`&(executable=w)(count=4)(maxTime=15)(reservationID=r1)(environment=(DUROC_TRACE "r|s"))`,
		`&(executable=w)(count=4)(count=5)(maxTime=1)(maxtime=2)`,
		`&(executable=w)(&(count=4)(maxTime=3))(reservationID!=r1)`,
		`&(executable=w)(count>4)`,
		`&(executable=$(EXE))(count=4)`,
		`&(executable=w)(count=$(N))`,
		`&(executable=w)(count=4)(maxTime=$(T))`,
		`&(executable=w)(count=4)(reservationID=$(R))`,
		`&(executable=w)(count=4)(environment=(A $(B)))`,
		`&(executable=w)(count=4)(environment=(A))`,
		`&(executable=w)(count=4)(environment=A)`,
		`&(executable=(a b))(count=4)`,
		`&(count=4)`,
		`&(executable=w)`,
		`&(executable=w)(count=four)`,
		`&(executable=w)(count=4)(maxTime=soon)`,
		`&(executable=w)(count=4)(maxTime=(1 2))`,
		`|(&(executable=w)(count=4))`,
		`executable=w`,
	} {
		node, err := rsl.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		got, gotErr := JobSpecFromNode(node)
		want, wantErr := oldJobSpecFromNode(node)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nJobSpecFromNode %+v, %v\nold             %+v, %v", src, got, gotErr, want, wantErr)
		}
	}
}
