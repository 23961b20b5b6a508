(** Structured event tracing on top of the engine's observer hook.

    A trace is a bounded ring buffer of {!Pengine.observation}s with an
    optional filter; it answers "what actually happened" questions after a
    run — per-label counts, per-round activity, and a rendering of the last
    N events.  Used by the CLI's [--trace] and by tests that assert on
    event sequences. *)

type t

val create : ?capacity:int -> ?keep:(Pengine.observation -> bool) -> unit -> t
(** [capacity] bounds the retained events (default 4096, oldest dropped);
    [keep] filters at record time (default: drop ticks, keep deliveries). *)

val record : t -> Pengine.observation -> unit
(** The function to install as the engine observer
    ([Pengine.observe engine (Trace.record trace)]). *)

val events : t -> Pengine.observation list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Total events recorded (including those already evicted). *)

val counts_by_label : t -> (string * int) list
(** Delivery counts per message family over the retained window, sorted. *)

val render : ?limit:int -> t -> string
(** Human-readable rendering of the last [limit] (default all retained)
    events, one per line. *)

val clear : t -> unit

val keep_protocol_only : Pengine.observation -> bool
(** The default filter: deliveries whose label is not ["info"]. *)
