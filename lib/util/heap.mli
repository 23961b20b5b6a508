(** Mutable binary min-heap with user-supplied priorities.

    The discrete-event simulator stores pending events here keyed by virtual
    time; ties are broken by insertion order so that executions are
    deterministic for a fixed seed. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> prio:float -> 'a -> unit
(** Amortised O(log n). *)

val push_at : 'a t -> prio:float -> seq:int -> 'a -> unit
(** Like {!push} but with a caller-supplied tie-break sequence instead of
    the heap's own insertion counter: among equal priorities, smaller [seq]
    pops first.  The sharded parallel engine keys events by a global
    [(time, shard, seq)] order, where the tie-break is a property of the
    {e event}, not of when this heap happened to learn about it (a remote
    event is pushed at mailbox-drain time, which is racy).  Do not mix with
    {!push} on the same heap unless the two sequence spaces are disjoint. *)

val top_seq : 'a t -> int
(** Tie-break sequence of the minimum entry ({!push_at}'s [seq], or the
    insertion counter for {!push}).  Allocation-free.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest priority (FIFO among
    equal priorities). O(log n).  The heap drops its own reference to the
    popped value: once the caller releases the result, the value is
    collectable (the backing array never pins popped entries). *)

val top : 'a t -> 'a
(** Value of the minimum entry without removing it.  Allocation-free.
    @raise Invalid_argument on an empty heap. *)

val top_prio : 'a t -> float
(** Priority of the minimum entry without removing it.  Allocation-free
    (priorities live in an unboxed float array).
    @raise Invalid_argument on an empty heap. *)

val drop_min : 'a t -> 'a
(** Removes the minimum entry and returns its value only — the
    allocation-free form of {!pop} for hot loops that read the priority
    first via {!top_prio}.  Same release guarantee as {!pop}.
    @raise Invalid_argument on an empty heap. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
