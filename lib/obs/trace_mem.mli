(** Tracing memory wrapper: a {!Lf_kernel.Mem.S} that forwards to the
    wrapped memory and reports every access to the module-level
    {!Recorder}, whose ring also holds the request spans a failed C&S
    is attributed to ({!Span.trees}).  Free (a level-word read per
    access) while the recorder is [Off]; stacks with the other wrappers
    ([Atomic_mem], [Sim_mem], [Fault_mem], [Check_mem]) like any
    memory. *)

module Make (M : Lf_kernel.Mem.S) : Lf_kernel.Mem.S with type 'a aref = 'a M.aref
