// Compile check: a discarded Result from a timed operation, or a discarded
// sim::Task (which would never run its body), is a compile error.
// tests/CMakeLists.txt compiles this file with -fsyntax-only
// -Werror=unused-result once per SV_FORM: forms 1-4 each drop a Result or
// a Task and must fail with the nodiscard diagnostic; form 0 consumes
// every one and must compile.
#include "datacutter/runtime.h"
#include "net/fabric.h"
#include "sockets/socket.h"

namespace {

struct Holder {
  sv::sockets::SvSocket& mine();
};

[[maybe_unused]] void timed_ops(sv::sockets::SvSocket* sock, Holder& h,
                                sv::dc::Runtime& rt, sv::net::Pipe* pipe,
                                sv::net::Message m, sv::SimTime t,
                                bool ready) {
#if SV_FORM == 1
  sock->send_for(m, t);
#elif SV_FORM == 2
  h.mine().recv_for(t);
#elif SV_FORM == 3
  if (ready) rt.wait_completion_for(t);
#elif SV_FORM == 4
  pipe->send_task(m, t);
#else
  auto sent = sock->send_for(m, t);
  (void)h.mine().recv_for(t);
  if (ready && !rt.wait_completion_for(t).ok()) return;
  (void)sent;
  if (ready) (void)pipe->send_task(m, t).run_in_place();
#endif
}

}  // namespace
