//! Carriers: where a virtual-thread body runs, and how control passes
//! between it and the scheduler loop of [`crate::exec`].
//!
//! A [`Carrier`] offers two calls. The scheduler [`resume`]s one
//! virtual thread, which runs until it [`suspend`]s itself (at its next
//! shared access) or its body returns; exactly one side runs at a time.
//!
//! On x86_64 Linux the carrier is [`Fibers`]: stackful coroutines that
//! all run on the thread that called `explore`/`replay`, switched by a
//! few instructions of assembly, with no OS thread, syscall or wake per
//! step. Elsewhere it is [`Threads`]: one OS thread per virtual thread,
//! handing a baton back and forth through a mutex and condvar, at an OS
//! wake per switch. Each target has exactly one carrier ([`Native`]);
//! the other is compiled on x86_64 only for the test that runs both.
//!
//! **Fiber stacks.** Each fiber runs on its own mmap'd stack of 256 KiB
//! (a constant) above a `PROT_NONE` guard page. Pages are
//! committed lazily, so resident memory counts only the pages a body
//! touches; a [`Fibers`] value owns its stacks and reuses them for every
//! execution it carries. A body that overflows its stack faults on the
//! guard page, and the process dies of SIGSEGV: std's overflow handler
//! only recognises the guard page of an OS thread's own stack, so no
//! "stack overflow" message is printed.
//!
//! **A fiber's entry frame never returns.** The last thing a fiber does
//! is switch back to the scheduler, which never resumes it; whatever the
//! entry frame still owned at that point would leak. So the body, and
//! the panic payload it may produce, are moved out of the frame (the
//! outcome into the fiber's slot) before that final switch. Panics are
//! caught inside the fiber, because its `extern "C"` entry must never
//! unwind, and handed to the scheduler as [`Resumed::Finished`].
//!
//! [`resume`]: Carrier::resume
//! [`suspend`]: Carrier::suspend

use std::any::Any;

/// A virtual-thread body as a carrier runs it.
pub(crate) type Body = Box<dyn FnOnce() + Send + 'static>;

/// How a body ended: normally, or unwinding with a panic payload.
pub(crate) type Outcome = Result<(), Box<dyn Any + Send>>;

/// What a resumed virtual thread handed back.
pub(crate) enum Resumed {
    /// It suspended itself; resuming it again continues its body.
    Suspended,
    /// Its body returned or unwound; the slot may be started again.
    Finished(Outcome),
}

/// Carries the virtual threads of one execution at a time, strictly one
/// running at once.
pub(crate) trait Carrier: Default {
    /// Installs `body` as virtual thread `tid`, which must not be live;
    /// the body first runs at the next [`resume`](Carrier::resume).
    fn start(&mut self, tid: usize, body: Body);

    /// Runs virtual thread `tid` until it suspends or its body ends.
    fn resume(&mut self, tid: usize) -> Resumed;

    /// Hands control from the calling virtual thread back to the
    /// scheduler; returns when the scheduler resumes this thread.
    fn suspend();
}

/// The carrier of this target.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) type Native = Fibers;
/// The carrier of this target.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) type Native = Threads;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use fibers::Fibers;

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
pub(crate) use threads::Threads;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fibers {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::ptr;

    use super::{Body, Carrier, Outcome, Resumed};

    /// Usable bytes of every fiber stack, below which sits one guard
    /// page.
    pub(crate) const STACK_SIZE: usize = 256 * 1024;

    /// The x86_64 page size, which is also the guard's size.
    const PAGE: usize = 4096;

    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x20000;
    const MAP_FAILED: *mut u8 = !0 as *mut u8;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// The MXCSR (all SSE exceptions masked, round to nearest) and x87
    /// control word (all exceptions masked, 64-bit precision) a fresh
    /// fiber starts with: the SysV ABI's initial values, in the layout
    /// [`switch`] stores them (MXCSR in the low half).
    const INITIAL_FP_CONTROL: usize = 0x1F80 | (0x037F << 32);

    /// One mmap'd stack: a guard page, then [`STACK_SIZE`] usable bytes.
    struct Stack {
        base: *mut u8,
    }

    impl Stack {
        const LEN: usize = PAGE + STACK_SIZE;

        fn new() -> Stack {
            // SAFETY: a fresh private anonymous mapping at an address of
            // the kernel's choosing aliases no existing memory.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    Self::LEN,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1,
                    0,
                )
            };
            assert!(
                base != MAP_FAILED,
                "mmap of a fiber stack failed: {}",
                std::io::Error::last_os_error()
            );
            let stack = Stack { base };
            // SAFETY: the first page lies inside the mapping just made,
            // and nothing refers to it yet.
            let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
            assert!(
                rc == 0,
                "mprotect of a fiber guard page failed: {}",
                std::io::Error::last_os_error()
            );
            stack
        }

        /// One past the highest usable byte (16-byte aligned).
        fn top(&self) -> usize {
            self.base as usize + Self::LEN
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `base..base + LEN` is the mapping `new` made, and
            // no fiber frame is live on it (a live stack is leaked
            // instead; see `Fibers`'s `Drop`).
            unsafe { munmap(self.base, Self::LEN) };
        }
    }

    /// One virtual thread's fiber. Boxed so its address is stable: the
    /// fiber's entry frame holds a pointer to it.
    struct Slot {
        stack: Stack,
        /// The fiber's stack pointer while it is suspended (or fresh).
        sp: usize,
        /// The scheduler's stack pointer while the fiber runs.
        back: usize,
        /// The body, until the fiber's first resume takes it.
        body: Option<Body>,
        /// How the body ended; set by the fiber as its last act.
        outcome: Option<Outcome>,
        /// Started and not yet finished: frames live on the stack.
        live: bool,
    }

    thread_local! {
        /// The slot of the fiber running on this OS thread, or null.
        static RUNNING: Cell<*mut Slot> = const { Cell::new(ptr::null_mut()) };
    }

    /// Stackful fibers on the calling OS thread, one per virtual thread
    /// id; stacks are made on first use and reused after.
    #[derive(Default)]
    pub(crate) struct Fibers {
        #[allow(clippy::vec_box)] // a started fiber's frame points at its slot
        slots: Vec<Box<Slot>>,
    }

    impl Carrier for Fibers {
        fn start(&mut self, tid: usize, body: Body) {
            while self.slots.len() <= tid {
                self.slots.push(Box::new(Slot {
                    stack: Stack::new(),
                    sp: 0,
                    back: 0,
                    body: None,
                    outcome: None,
                    live: false,
                }));
            }
            let slot: &mut Slot = &mut self.slots[tid];
            assert!(!slot.live, "virtual thread {tid} is still live");
            // The frame `switch` pops on the first resume: the control
            // words, r15 down to rbp (r12 carries the slot to the
            // trampoline, rbp = 0 ends frame-pointer walks), then the
            // trampoline as the return address, with the stack 16-byte
            // aligned once it has been popped.
            let frame = [
                INITIAL_FP_CONTROL,
                0,
                0,
                0,
                ptr::from_mut(slot) as usize,
                0,
                0,
                trampoline as *const () as usize,
            ];
            let sp = slot.stack.top() - std::mem::size_of_val(&frame);
            // SAFETY: `sp..top` lies inside the stack's usable pages,
            // which no live frame occupies (the slot is not live).
            unsafe { ptr::write(sp as *mut [usize; 8], frame) };
            slot.sp = sp;
            slot.body = Some(body);
            slot.live = true;
        }

        fn resume(&mut self, tid: usize) -> Resumed {
            let slot: *mut Slot = &mut *self.slots[tid];
            // SAFETY: `slot` is owned by this carrier; the fiber only
            // touches it while running, i.e. inside `switch` below.
            unsafe {
                assert!((*slot).live, "virtual thread {tid} is not live");
                let outer = RUNNING.replace(slot);
                switch(&raw mut (*slot).back, (*slot).sp);
                RUNNING.set(outer);
                match (*slot).outcome.take() {
                    None => Resumed::Suspended,
                    Some(outcome) => {
                        (*slot).live = false;
                        Resumed::Finished(outcome)
                    }
                }
            }
        }

        fn suspend() {
            let slot = RUNNING.get();
            assert!(!slot.is_null(), "suspend called outside a fiber");
            // SAFETY: `slot` is the running fiber's own slot, and the
            // scheduler saved its stack pointer in `back` when it
            // resumed this fiber.
            unsafe { switch(&raw mut (*slot).sp, (*slot).back) };
        }
    }

    impl Drop for Fibers {
        fn drop(&mut self) {
            for slot in self.slots.drain(..) {
                if slot.live {
                    // Only reachable if the scheduler itself unwound with
                    // a fiber suspended: its frames can never be resumed
                    // or dropped, so keep the memory they sit in mapped.
                    std::mem::forget(slot);
                }
            }
        }
    }

    /// Runs the fiber's body to its end and stores how it ended. Every
    /// value this frame owns is moved or dropped by the time it returns.
    ///
    /// # Safety
    ///
    /// `slot` is the running fiber's own slot.
    unsafe fn run(slot: *mut Slot) {
        // SAFETY: per the contract, and the scheduler does not touch the
        // slot while the fiber runs.
        let body = unsafe { (*slot).body.take() }.expect("a started fiber has a body");
        let outcome = catch_unwind(AssertUnwindSafe(body));
        // SAFETY: as above.
        unsafe { (*slot).outcome = Some(outcome) };
    }

    /// The fiber's entry, called by [`trampoline`] with the slot from
    /// r12. It never returns: its final switch hands control back for
    /// good, after `run` has dropped everything it owned.
    extern "C" fn entry(slot: *mut Slot) -> ! {
        // SAFETY: the trampoline passes the slot `start` wrote into this
        // fiber's initial frame, and this fiber is the one running.
        unsafe {
            run(slot);
            switch(&raw mut (*slot).sp, (*slot).back);
        }
        unreachable!("a finished fiber was resumed")
    }

    /// The bottom frame of every fiber. `.cfi_undefined rip` marks it as
    /// the outermost frame, so a backtrace taken inside a fiber (the
    /// panic hook's, under `RUST_BACKTRACE=1`) stops here instead of
    /// walking off the fiber's stack.
    ///
    /// # Safety
    ///
    /// Never called: only entered by `switch`'s return into a frame
    /// built by [`Fibers::start`], with r12 holding the fiber's slot.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() -> ! {
        std::arch::naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            ".cfi_endproc",
            entry = sym entry,
        )
    }

    /// Switches stacks: pushes the callee-saved registers, MXCSR and the
    /// x87 control word, stores the stack pointer to `*save`, then pops
    /// the same from the stack at `load` and returns into that context.
    /// Everything else is caller-saved under SysV, so the compiler has
    /// already spilled what it needs around this call.
    ///
    /// # Safety
    ///
    /// `load` is a stack pointer saved by `switch` (or built by
    /// [`Fibers::start`]) whose context has not been resumed since, and
    /// `save` is valid for a write.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut usize, load: usize) {
        std::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr dword ptr [rsp]",
            "fnstcw word ptr [rsp + 4]",
            "mov qword ptr [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr dword ptr [rsp]",
            "fldcw word ptr [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod threads {
    use std::cell::RefCell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread::JoinHandle;

    use super::{Body, Carrier, Outcome, Resumed};

    /// Whose move it is between the scheduler and one virtual thread.
    enum Turn {
        Scheduler,
        Thread,
        Finished(Outcome),
    }

    /// The baton one virtual thread and the scheduler pass back and
    /// forth.
    struct Baton {
        turn: Mutex<Turn>,
        cv: Condvar,
    }

    impl Baton {
        fn lock(&self) -> MutexGuard<'_, Turn> {
            self.turn.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Waits until it is the virtual thread's turn.
        fn await_thread(&self, mut turn: MutexGuard<'_, Turn>) {
            while !matches!(*turn, Turn::Thread) {
                turn = self.cv.wait(turn).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Hands the turn to the other side.
        fn give(&self, to: Turn) -> MutexGuard<'_, Turn> {
            let mut turn = self.lock();
            *turn = to;
            self.cv.notify_all();
            turn
        }
    }

    thread_local! {
        /// The baton of the virtual thread this OS thread carries.
        static BATON: RefCell<Option<Arc<Baton>>> = const { RefCell::new(None) };
    }

    /// One OS thread per virtual thread, started per execution; the
    /// portable carrier.
    #[derive(Default)]
    pub(crate) struct Threads {
        live: Vec<Option<(Arc<Baton>, JoinHandle<()>)>>,
    }

    impl Carrier for Threads {
        fn start(&mut self, tid: usize, body: Body) {
            while self.live.len() <= tid {
                self.live.push(None);
            }
            assert!(
                self.live[tid].is_none(),
                "virtual thread {tid} is still live"
            );
            let baton = Arc::new(Baton {
                turn: Mutex::new(Turn::Scheduler),
                cv: Condvar::new(),
            });
            let mine = Arc::clone(&baton);
            let handle = std::thread::Builder::new()
                .name(format!("wfc-sched-{tid}"))
                .spawn(move || {
                    mine.await_thread(mine.lock());
                    BATON.with(|b| *b.borrow_mut() = Some(Arc::clone(&mine)));
                    let outcome = catch_unwind(AssertUnwindSafe(body));
                    BATON.with(|b| *b.borrow_mut() = None);
                    drop(mine.give(Turn::Finished(outcome)));
                })
                .expect("spawn a virtual-thread carrier");
            self.live[tid] = Some((baton, handle));
        }

        fn resume(&mut self, tid: usize) -> Resumed {
            let (baton, _) = self.live[tid].as_ref().expect("virtual thread is live");
            let mut turn = baton.give(Turn::Thread);
            while matches!(*turn, Turn::Thread) {
                turn = baton.cv.wait(turn).unwrap_or_else(|e| e.into_inner());
            }
            match std::mem::replace(&mut *turn, Turn::Scheduler) {
                Turn::Finished(outcome) => {
                    drop(turn);
                    let (_, handle) = self.live[tid].take().expect("virtual thread is live");
                    handle
                        .join()
                        .expect("a carrier thread catches its body's panic");
                    Resumed::Finished(outcome)
                }
                _ => Resumed::Suspended,
            }
        }

        fn suspend() {
            let baton = BATON
                .with(|b| b.borrow().clone())
                .expect("suspend called outside a virtual thread");
            baton.await_thread(baton.give(Turn::Scheduler));
        }
    }
}
