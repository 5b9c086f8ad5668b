package buildinfo

import (
	"runtime"
	"strings"
	"testing"

	"muaa/internal/obs"
)

func TestString(t *testing.T) {
	s := String("muaa-test")
	if !strings.HasPrefix(s, "muaa-test ") || !strings.Contains(s, runtime.Version()) {
		t.Fatalf("version line %q", s)
	}
}

func TestRegister(t *testing.T) {
	reg := obs.NewRegistry()
	Register(reg)
	var sb strings.Builder
	reg.WriteTextFiltered(&sb, "")
	text := sb.String()
	if !strings.Contains(text, "muaa_build_info{") {
		t.Fatalf("exposition missing build info gauge:\n%s", text)
	}
	if !strings.Contains(text, `go_version="`+runtime.Version()+`"`) {
		t.Fatalf("go_version label missing:\n%s", text)
	}
	if !strings.Contains(text, `revision="`) {
		t.Fatalf("revision label missing:\n%s", text)
	}
}
