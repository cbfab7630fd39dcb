// Source annotations backing the static-analysis layer (tools/gridlint).
//
// The analyzer used to carry hard-coded path lists naming the hot layers;
// those lists rotted whenever a file moved and said nothing at the point
// of use.  These macros move the contract into the source itself:
//
//   GRID_HOT          Marks a class (or function) as part of the
//                     steady-state message/event path.  Any file that
//                     declares a GRID_HOT entity — and its same-stem
//                     implementation file — is a *hot file*: gridlint bans
//                     std::unordered_map/set, std::function, and naked
//                     new/malloc there (rules hot-container, hot-function,
//                     naked-new).  Use sim::IdMap/IdSlab,
//                     sim::InplaceFunction, and the buffer pool instead.
//
//   GRID_SHARD_LOCAL  Marks mutable static-storage state (globals,
//                     thread_locals, function-local statics) as
//                     deliberately per-thread.  gridlint's shard-safety
//                     rule flags every other mutable static in src/ —
//                     sim::TrialPool runs seeded trials concurrently, and
//                     state two trials can reach breaks the byte-identity
//                     of their results — so the annotation is a reviewed
//                     claim, not a formality.
//
// Under clang the macros expand to [[clang::annotate]] so the libclang
// AST engine resolves them exactly (entity, scope, file); other compilers
// see nothing — annotations never change codegen, overload resolution, or
// behavior (tests/checked_test.cpp pins that the GRID_CHECKED tripwires
// guarding annotated state still fire).  The regex fallback engine keys on
// the macro tokens textually.
#pragma once

#if defined(__clang__) && defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::annotate)
#define GRID_ANNOTATION(text) [[clang::annotate(text)]]
#endif
#endif
#ifndef GRID_ANNOTATION
#define GRID_ANNOTATION(text)
#endif

/// Steady-state message/event path: allocation-free, hash-order-free.
#define GRID_HOT GRID_ANNOTATION("grid::hot")

/// Mutable static-storage state that is intentionally per-thread.
#define GRID_SHARD_LOCAL GRID_ANNOTATION("grid::shard_local")
