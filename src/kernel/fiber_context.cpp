#include "kernel/fiber_context.h"

#include <cstdint>

#if defined(__x86_64__)

// A suspended execution's stack, from its saved stack pointer upwards:
//
//   sp+0   MXCSR (4 bytes), x87 control word (2 bytes), 2 bytes padding
//   sp+8   r15, r14, r13, r12, rbx, rbp
//   sp+56  return address
//
// tdsim_fiber_swap(save_sp, next_sp) pushes that frame, stores rsp in
// *save_sp, loads next_sp and pops the other execution's frame. The CFA
// offsets hold on both stacks, so the unwind info stays valid across the
// stack-pointer load.
//
// A fresh frame (make_frame) "returns" into tdsim_fiber_start with the
// entry function in r12 and its argument in r13. The stub calls the entry
// on a 16-byte-aligned stack and traps if it ever returns; its unwind info
// marks the return address undefined, so unwinders and debuggers stop
// there.
asm(R"(
  .pushsection .text
  .globl tdsim_fiber_swap
  .hidden tdsim_fiber_swap
  .type tdsim_fiber_swap, @function
  .p2align 4
tdsim_fiber_swap:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size tdsim_fiber_swap, .-tdsim_fiber_swap

  .globl tdsim_fiber_start
  .hidden tdsim_fiber_start
  .type tdsim_fiber_start, @function
  .p2align 4
tdsim_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size tdsim_fiber_start, .-tdsim_fiber_start
  .popsection
)");

extern "C" void tdsim_fiber_start();

namespace tdsim::fiber {

void make_frame(Context& ctx, char* stack_bottom, std::size_t stack_size,
                Entry entry, void* arg) {
  // Slots of the frame tdsim_fiber_swap pops, in 8-byte words.
  enum : std::size_t { kFpEnv, kR15, kR14, kR13, kR12, kRbx, kRbp, kReturn,
                       kFrameWords };
  // The SysV ABI wants a 16-byte-aligned stack; heap stacks of odd sizes
  // get their top rounded down.
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack_bottom + stack_size) &
      ~std::uintptr_t{15};
  // The frame sits 16 zero bytes below the top, so the stub's call into
  // the entry happens on a 16-byte-aligned stack. rbp starts at 0, which
  // ends frame-pointer walks at the entry.
  auto* words = reinterpret_cast<std::uint64_t*>(top) - kFrameWords - 2;
  for (std::size_t i = 0; i < kFrameWords + 2; ++i) {
    words[i] = 0;
  }
  // The fiber starts with the floating-point environment of the execution
  // that creates it, as getcontext()/makecontext() did.
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  words[kFpEnv] = mxcsr | (static_cast<std::uint64_t>(x87_cw) << 32);
  words[kR13] = reinterpret_cast<std::uint64_t>(arg);
  words[kR12] = reinterpret_cast<std::uint64_t>(entry);
  words[kReturn] = reinterpret_cast<std::uint64_t>(&tdsim_fiber_start);
  ctx = words;
}

}  // namespace tdsim::fiber

#else  // ucontext fallback for other ISAs

#include "kernel/report.h"

namespace tdsim::fiber {

namespace {

// makecontext passes int-sized arguments only, so the Context pointer
// travels as two halves.
void start_ucontext(unsigned hi, unsigned lo) {
  auto* ctx = reinterpret_cast<Context*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo));
  ctx->entry(ctx->arg);
  __builtin_trap();
}

}  // namespace

void make_frame(Context& ctx, char* stack_bottom, std::size_t stack_size,
                Entry entry, void* arg) {
  if (getcontext(&ctx.uc) != 0) {
    Report::error("getcontext failed for a fiber stack");
  }
  ctx.uc.uc_stack.ss_sp = stack_bottom;
  ctx.uc.uc_stack.ss_size = stack_size;
  // The entry never returns (it ends with a swap), so no uc_link.
  ctx.uc.uc_link = nullptr;
  ctx.entry = entry;
  ctx.arg = arg;
  const auto ptr = reinterpret_cast<std::uintptr_t>(&ctx);
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&start_ucontext), 2,
              static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xffffffffu));
}

void swap(Context& save, Context& next) {
  swapcontext(&save.uc, &next.uc);
}

}  // namespace tdsim::fiber

#endif
