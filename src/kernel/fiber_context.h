// Machine context switch for the stackful thread processes.
//
// Two operations, and every fiber switch in the kernel goes through them:
//
//   * make_frame() prepares a fresh stack so that the first swap() into it
//     calls entry(arg) on that stack;
//   * swap() saves the running execution into one Context and resumes
//     another.
//
// On x86-64 both are hand-written (fiber_context.cpp), in the style of
// Boost.Context's fcontext (https://www.boost.org/doc/libs/release/libs/
// context/). A Context is then just the stack pointer of the suspended
// execution; everything else lives on its stack. swap() saves what the
// SysV ABI requires a callee to preserve -- rbx, rbp, r12-r15 and rsp --
// plus the MXCSR register and the x87 control word, so each fiber keeps
// its own rounding mode and exception masks (fesetround() in one process
// does not leak into another or into the scheduler). It makes no system
// call: unlike glibc's swapcontext it neither saves nor restores the
// signal mask, so fibers share their OS thread's mask. It does not switch
// CET shadow stacks either, so fiber_context.cpp is built with
// -fcf-protection=none (CMakeLists.txt) and binaries linking it do not
// claim shadow-stack support.
//
// Other ISAs keep the POSIX ucontext implementation behind the same two
// calls.
//
// The sanitizer annotations (kernel/fiber_sanitizer.h) stay at the call
// sites, bracketing each swap().
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace tdsim::fiber {

/// What a fresh fiber runs; it must never return (a return traps on
/// x86-64). The kernel's entry ends with a final swap() back to a
/// scheduler context instead.
using Entry = void (*)(void* arg);

#if defined(__x86_64__)

/// A suspended execution: the stack pointer its saved registers sit under.
using Context = void*;

#else

/// A suspended execution, plus the entry a fresh one starts in.
struct Context {
  ucontext_t uc{};
  Entry entry = nullptr;
  void* arg = nullptr;
};

#endif

/// Prepares `ctx` so that the first swap() into it runs entry(arg) on the
/// stack [stack_bottom, stack_bottom + stack_size).
void make_frame(Context& ctx, char* stack_bottom, std::size_t stack_size,
                Entry entry, void* arg);

#if defined(__x86_64__)

extern "C" void tdsim_fiber_swap(void** save_sp, void* next_sp);

/// Saves the calling execution in `save` and resumes `next`; returns when
/// some later swap() resumes `save`.
inline void swap(Context& save, Context& next) {
  tdsim_fiber_swap(&save, next);
}

#else

void swap(Context& save, Context& next);

#endif

}  // namespace tdsim::fiber
