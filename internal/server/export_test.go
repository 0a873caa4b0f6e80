package server

import "time"

// SetReplyWriteTimeout shortens the reply write deadline for a test in
// package server_test; call it before Start.
func (s *Server) SetReplyWriteTimeout(d time.Duration) { s.writeTimeout = d }
