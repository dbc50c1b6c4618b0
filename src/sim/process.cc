#include "sim/process.h"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

// sv_sim_fiber_switch(save_sp, load_sp) suspends the running stack and
// resumes another. It pushes the callee-saved registers, MXCSR and the x87
// control word (the SysV ABI's preserved state), stores rsp in *save_sp,
// loads load_sp and pops the same frame from there. A fresh stack is built
// (initial_frame below) to pop into sv_sim_fiber_start, which calls
// r13(r12) as the outermost frame of the fiber.
extern "C" void sv_sim_fiber_switch(void** save_sp, void* load_sp);
extern "C" void sv_sim_fiber_start();
asm(R"(
  .text
  .globl sv_sim_fiber_switch
  .type sv_sim_fiber_switch, @function
  .p2align 4
sv_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size sv_sim_fiber_switch, .-sv_sim_fiber_switch

  .globl sv_sim_fiber_start
  .type sv_sim_fiber_start, @function
  .p2align 4
sv_sim_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size sv_sim_fiber_start, .-sv_sim_fiber_start
)");

namespace sv::sim {
namespace {

constexpr std::size_t kGuardBytes = 4096;  // one x86-64 page
constexpr std::size_t kMapBytes = kGuardBytes + Process::kStackBytes;
constexpr std::size_t kAltStackBytes = 64 * 1024;

/// The suspended frame sv_sim_fiber_switch pops on a fresh stack: control
/// words, r15..rbp, then sv_sim_fiber_start as the return address, which
/// finds rsp 16-byte aligned for its call of entry(self).
void* initial_frame(char* top, void (*entry)(Process*), Process* self) {
  auto* f = reinterpret_cast<std::uint64_t*>(top) - 10;
  std::uint16_t x87_cw = 0;
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  f[0] = __builtin_ia32_stmxcsr() | (std::uint64_t{x87_cw} << 32);
  f[1] = f[2] = 0;                                 // r15, r14
  f[3] = reinterpret_cast<std::uint64_t>(entry);  // r13
  f[4] = reinterpret_cast<std::uint64_t>(self);   // r12
  f[5] = f[6] = 0;                                 // rbx, rbp
  f[7] = reinterpret_cast<std::uint64_t>(&sv_sim_fiber_start);
  f[8] = f[9] = 0;
  return f;
}

// Sanitizer fiber annotations: ASan must know which stack is live (or it
// reports false stack-use-after-scope when an exception unwinds a fiber),
// and TSan which fiber runs. Each switch is announced just before it and,
// for ASan, completed just after. They compile to nothing in plain builds.
void asan_start_switch([[maybe_unused]] void** fake_stack,
                       [[maybe_unused]] const void* bottom,
                       [[maybe_unused]] std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack, bottom, bytes);
#endif
}

void asan_finish_switch([[maybe_unused]] void* fake_stack,
                        [[maybe_unused]] const void** bottom,
                        [[maybe_unused]] std::size_t* bytes) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, bottom, bytes);
#endif
}

void* tsan_current_fiber() {
#if defined(__SANITIZE_THREAD__)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

void tsan_switch_to([[maybe_unused]] void* fiber) {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(fiber, 0);
#endif
}

void say(const char* s, std::size_t n) {  // async-signal-safe stderr write
  [[maybe_unused]] const ssize_t written = write(STDERR_FILENO, s, n);
}

/// Mappings of finished processes, taken before mmap is called again. A
/// plain static, like StackGuard::running: every simulation and all of its
/// processes run on one OS thread (DESIGN.md §5.1).
std::vector<char*> free_stacks;

/// A mapping of kMapBytes whose lowest page is the PROT_NONE guard.
char* take_stack() {
  if (!free_stacks.empty()) {
    char* mapping = free_stacks.back();
    free_stacks.pop_back();
    return mapping;
  }
  void* m = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  char* mapping = static_cast<char*>(m);
  if (mprotect(mapping, kGuardBytes, PROT_NONE) != 0) {
    munmap(mapping, kMapBytes);
    throw std::bad_alloc();
  }
  return mapping;
}

}  // namespace

/// Turns a fault in the running process's guard page into a message naming
/// the process. Installed with the first process; every fault is then
/// handed back to the disposition found at install time (ASan's, or the
/// default), which reports it and ends the run.
class StackGuard {
 public:
  /// The process whose stack is executing, or nullptr on the scheduler's.
  static inline const Process* running = nullptr;

  static void install() {
    // The handler needs a stack of its own: the faulting one is full. Keep
    // one that is already set up (ASan sets up its own).
    stack_t current{};
    sigaltstack(nullptr, &current);
    if ((current.ss_flags & SS_DISABLE) != 0) {
      stack_t alt{};
      alt.ss_size = kAltStackBytes;
      alt.ss_sp = mmap(nullptr, kAltStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (alt.ss_sp != MAP_FAILED) sigaltstack(&alt, nullptr);
    }
    struct sigaction sa {};
    sa.sa_sigaction = &StackGuard::on_segv;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGSEGV, &sa, &previous_);
  }

 private:
  static void on_segv(int /*sig*/, siginfo_t* info, void* /*context*/) {
    const Process* p = running;
    const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
    if (p != nullptr &&
        addr - reinterpret_cast<std::uintptr_t>(p->mapping_) < kGuardBytes) {
      static constexpr char kHead[] = "sim: stack overflow in process '";
      static constexpr char kTail[] = "' (Process::kStackBytes exceeded)\n";
      say(kHead, sizeof(kHead) - 1);
      say(p->name_.data(), p->name_.size());
      say(kTail, sizeof(kTail) - 1);
    }
    // Returning re-executes the faulting access under the old disposition.
    sigaction(SIGSEGV, &previous_, nullptr);
  }

  static inline struct sigaction previous_ {};
};

Process::Process(Simulation* sim, std::uint64_t id, std::string name,
                 std::function<void()> body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {
  [[maybe_unused]] static const bool guarded = (StackGuard::install(), true);
  mapping_ = take_stack();
  sp_ = initial_frame(mapping_ + kMapBytes, &Process::entry, this);
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
  __tsan_set_fiber_name(tsan_fiber_, name_.c_str());
#endif
}

Process::~Process() {
  // Simulation finishes (or kills) every process before destroying it, and
  // the stack goes when the process finishes; this is the safety net.
  release_stack();
}

void Process::release_stack() {
  if (mapping_ == nullptr) return;
#if defined(__SANITIZE_ADDRESS__)
  // Frames the fiber never returned from leave poisoned shadow behind;
  // clear it before the next process runs on these addresses.
  ASAN_UNPOISON_MEMORY_REGION(mapping_, kMapBytes);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  // The pages go back to the kernel, so a pooled stack holds no resident
  // memory; the mapping and its guard page stay for the next process.
  madvise(mapping_ + kGuardBytes, kStackBytes, MADV_DONTNEED);
  free_stacks.push_back(mapping_);
  mapping_ = nullptr;
}

void Process::entry(Process* self) {
  self->switch_in(nullptr);
  try {
    self->body_();
  } catch (const ProcessKilled&) {
    // Normal shutdown path.
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->finished_ = true;
  // Switch away for good; nullptr lets ASan free this fiber's fake stack.
  // The scheduler observes finished_ and releases the stack.
  self->switch_out(nullptr);
}

void Process::resume_from_scheduler() {
  void* fake_stack = nullptr;  // the scheduler's, kept across the switch
  asan_start_switch(&fake_stack, mapping_ + kGuardBytes, kStackBytes);
  const Process* outer = StackGuard::running;
  StackGuard::running = this;
  tsan_scheduler_ = tsan_current_fiber();
  tsan_switch_to(tsan_fiber_);
  sv_sim_fiber_switch(&scheduler_sp_, sp_);
  asan_finish_switch(fake_stack, nullptr, nullptr);
  StackGuard::running = outer;
  if (finished_) release_stack();
}

void Process::yield_to_scheduler() {
  void* fake_stack = nullptr;
  switch_out(&fake_stack);
  switch_in(fake_stack);
}

void Process::switch_out(void** fake_stack) {
  asan_start_switch(fake_stack, scheduler_stack_, scheduler_stack_bytes_);
  tsan_switch_to(tsan_scheduler_);
  sv_sim_fiber_switch(&sp_, scheduler_sp_);
}

void Process::switch_in(void* fake_stack) {
  // Also learns the bounds of the stack that resumed this process.
  asan_finish_switch(fake_stack, &scheduler_stack_, &scheduler_stack_bytes_);
}

}  // namespace sv::sim
