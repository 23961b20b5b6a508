(** The one-line reproducer grammar every checker prints and reads.

    A reproducer is [key=value] components joined by [;], e.g.
    [n=4;ids=2,0,3,1;edges=0-1,1-2,2-3;seed=7;init=random;events=40].
    The common keys name the instance and are handled here, once:
    [n] (node count), [ids] (node ids, printed only when they are not the
    identity), [edges] ([u-v] pairs, comma-separated) and [seed].  Each
    checker adds its own keys on top (see docs/TESTING.md for the
    table of which command reads which key).  Empty components are
    ignored; when a key repeats, the last one wins. *)

val common : Mdst_graph.Graph.t -> seed:int -> string list
(** The [n], [ids] (when not the identity), [edges] and [seed]
    components, in that order. *)

type fields

val parse : what:string -> keys:string list -> string -> fields
(** Split a line into components.  [keys] are the caller's own keys on
    top of [n], [ids], [edges], [seed]; [what] prefixes every error.
    @raise Invalid_argument on a component without [=] or an unknown
    key. *)

val find : fields -> string -> string option
(** The raw value of a key, if present. *)

val bad : fields -> string -> string -> 'a
(** [bad f key value] raises [Invalid_argument] naming the key and the
    value. *)

val int : fields -> string -> int option
(** @raise Invalid_argument when present but not an integer. *)

val nat : fields -> string -> int option
(** Like {!int}, also rejecting negative values. *)

val enum : fields -> string -> (string * 'a) list -> 'a option
(** @raise Invalid_argument when present but not one of the names. *)

val graph : fields -> Mdst_graph.Graph.t
(** From [n], [edges] and the optional [ids].
    @raise Invalid_argument when [n] or [edges] is missing, or any value
    is malformed. *)

val seed : fields -> int
(** [seed], default 0. *)

val plan : fields -> Mdst_sim.Fault.plan
(** [plan] ({!Mdst_sim.Fault.to_string} form), default
    {!Mdst_sim.Fault.empty}; for the checkers that list it in [keys]. *)
