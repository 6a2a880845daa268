"""Stub of the retired router; see :mod:`repro.router.core`."""

from repro.router.core import Router, active_router

__all__ = ["Router", "active_router"]
