(** Actor supervision for the threaded runtime.

    A supervisor wraps every actor body spawned by {!Executor.run}. When a
    body raises, the supervisor records the failure (actor name, vertex,
    exception, backtrace) and {e trips}: every registered mailbox is closed
    so that peers blocked in [Mailbox.put]/[Mailbox.take] wake with
    {!Mailbox.Closed} and exit as [Cancelled] instead of deadlocking the
    run. The same trip path implements the executor's wall-clock timeout.

    Production stream engines treat operator failure as a first-class
    runtime event rather than a hang; this module is the repository's
    minimal version of that contract: fail fast, release every resource,
    and report per-actor status.

    Concurrent failures are several reports and one outcome. Closing the
    mailboxes stops actors only at their next mailbox operation, so
    actors already running a raising behavior — typically the replicas of
    one fission unit, which all see the same inputs — may each raise
    before the poison reaches them. Every actor whose body raised is
    reported [Failed]; {!outcome} carries the first failure recorded. *)

type status =
  | Completed  (** The body returned normally. *)
  | Failed of { exn : string; backtrace : string }
      (** The body raised; the exception tripped the supervisor. *)
  | Cancelled
      (** The body was unblocked by a mailbox closed during shutdown. *)

type report = { actor : string; vertex : int option; status : status }
(** [vertex] is [None] for actors not tied to a single topology vertex. *)

type outcome =
  | Finished  (** Every actor completed. *)
  | Actor_failed of report
      (** The first failure recorded; later concurrent failures appear
          only in {!reports}. *)
  | Timed_out of float  (** The watchdog tripped after this many seconds. *)

type t

val create : unit -> t

val register_closer : t -> (unit -> unit) -> unit
(** Register an idempotent shutdown action (typically [Mailbox.close]). If
    the supervisor already tripped, the closer runs immediately. *)

val supervise : t -> actor:string -> ?vertex:int -> (unit -> unit) -> unit -> unit
(** [supervise t ~actor ?vertex body] is a body that runs [body], catching
    every exception: a normal return records [Completed],
    {!Mailbox.Closed} records [Cancelled], anything else records [Failed]
    and trips the supervisor (closing all registered mailboxes). *)

val trip : t -> unit
(** Force shutdown: run every registered closer. Idempotent. *)

val trip_timeout : t -> after:float -> unit
(** Like {!trip}, additionally recording a timeout as the run outcome
    (unless an actor failure was already recorded). *)

val tripped : t -> bool

val reports : t -> report list
(** Per-actor reports in completion order. *)

val outcome : t -> outcome
(** The first shutdown cause wins: a recorded timeout (which is only
    recorded when no failure preceded it) takes precedence over failures
    raised during the ensuing cancellation; [Finished] otherwise. *)

val pp_status : Format.formatter -> status -> unit
val pp_outcome : Format.formatter -> outcome -> unit
