// Compile check: a discarded Result from a timed operation, or a discarded
// sim::Task (which would never run its body), Task<void> included, is a
// compile error. tests/CMakeLists.txt compiles this file with
// -fsyntax-only -Werror=unused-result once per SV_FORM: forms 1-6 each drop
// a Result or a Task and must fail with the nodiscard diagnostic; form 0
// consumes every one and must compile.
#include "datacutter/runtime.h"
#include "net/fabric.h"
#include "sockets/socket.h"
#include "via/via.h"

namespace {

struct Holder {
  sv::sockets::SvSocket& mine();
};

[[maybe_unused]] void timed_ops(sv::sockets::SvSocket* sock, Holder& h,
                                sv::dc::Runtime& rt, sv::net::Pipe* pipe,
                                sv::via::Vi& vi, sv::via::Descriptor d,
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
#elif SV_FORM == 5
  sock->recv_task(t);
#elif SV_FORM == 6
  vi.post_send_task(d);
#else
  auto sent = sock->send_for(m, t);
  (void)h.mine().recv_for(t);
  if (ready && !rt.wait_completion_for(t).ok()) return;
  (void)sent;
  if (ready) (void)pipe->send_task(m, t).run_in_place();
  if (ready) (void)sock->recv_task(t).run_in_place();
  if (ready) vi.post_send_task(d).run_in_place();
#endif
}

}  // namespace
