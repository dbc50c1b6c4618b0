// Compile check: a discarded Result from a timed operation is a compile
// error. tests/CMakeLists.txt compiles this file with -fsyntax-only
// -Werror=unused-result once per SV_FORM: forms 1-3 each drop a Result
// and must fail with the nodiscard diagnostic; form 0 consumes every
// Result and must compile.
#include "datacutter/runtime.h"
#include "sockets/socket.h"

namespace {

struct Holder {
  sv::sockets::SvSocket& mine();
};

[[maybe_unused]] void timed_ops(sv::sockets::SvSocket* sock, Holder& h,
                                sv::dc::Runtime& rt, sv::net::Message m,
                                sv::SimTime t, bool ready) {
#if SV_FORM == 1
  sock->send_for(m, t);
#elif SV_FORM == 2
  h.mine().recv_for(t);
#elif SV_FORM == 3
  if (ready) rt.wait_completion_for(t);
#else
  auto sent = sock->send_for(m, t);
  (void)h.mine().recv_for(t);
  if (ready && !rt.wait_completion_for(t).ok()) return;
  (void)sent;
#endif
}

}  // namespace
