//go:build !linux

package alarm

import "time"

// Alarm has no timerfd to stand on here: every wait keeps its Go timer
// alone (see alarm_linux.go for what the alarm buys on Linux).
type Alarm struct{}

func arm(time.Duration) *Alarm { return nil }

func (*Alarm) release() {}
