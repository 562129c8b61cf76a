(** The grid scheduling service of §2 (after the NILE Global Planner):
    jobs examined in FCFS order overridden by priorities. The service is
    {e unintentionally} nondeterministic: a job's effective position
    depends on the local clock at submission, [Examine] schedules the
    best job currently visible (the Job-A/Job-B race), and the target
    machine is drawn randomly among the least loaded. Witnesses record
    the observed clock and the choices made. *)

module Imap : Map.S with type key = int

type job = { priority : int; arrival : float; submitted_seq : int }

type state = {
  machines : int Imap.t;  (** machine id → jobs currently assigned *)
  pending : job Imap.t;
  assignments : (int * int) list;  (** (job, machine), newest first *)
  next_seq : int;
}

type op =
  | Add_machine of int
  | Submit of { job : int; priority : int }
  | Examine  (** schedule the best pending job, if any *)
  | Complete of { job : int; machine : int }
  | Queue_length  (** read *)
  | Assignment_of of int  (** read *)

type result =
  | Done
  | Submitted
  | Scheduled of (int * int) option
  | Length of int
  | Assigned_to of int option
  | Error of string

include
  Grid_paxos.Service_intf.S
    with type state := state
     and type op := op
     and type result := result

(** {1 Helpers} *)

val assignments : state -> (int * int) list
(** Oldest first. *)
