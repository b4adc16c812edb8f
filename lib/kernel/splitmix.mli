(** SplitMix64 (Steele, Lea & Flood 2014): a small, fast, splittable PRNG.

    Used for every random choice in the repository so that tests,
    simulations and benchmarks are reproducible from one integer seed.
    Derive independent per-process streams with {!split}.

    The state is unboxed, so {!bits}, {!int} (at every bound), {!bool}
    and {!hash} allocate nothing, and {!float} only its 2-word result;
    {!create} and {!split} allocate the new generator.  Seeded tests and
    simulations replay these streams, so test_kernel pins seed 1's first
    draws at several bounds: the representation may change, the stream
    may not. *)

type t

val create : int -> t
(** A generator seeded with the given integer. *)

val split : t -> t
(** A statistically independent child stream (advances the parent). *)

val bits : t -> int
(** A uniformly random non-negative 62-bit integer. *)

val hash : int -> int
(** [hash seed = bits (create seed)], computed without building a
    stream. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]; rejection-sampled, so unbiased.
    @raise Invalid_argument if [n <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]: [bits t lsr 9] scaled by [2^-53], so a caller
    that must not box the result can compute it from {!bits}. *)

val bool : t -> bool

val domain_local : int -> unit -> t
(** [domain_local salt] is a function returning the calling domain's own
    generator, created on first use from [salt] and the domain id.  The
    blessed way for code outside [lib/kernel] to get per-domain randomness
    without touching [Domain.DLS] directly. *)
